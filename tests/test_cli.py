import json
import math

import pytest

from txsched.cli import main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    rc = main(
        ["gen", "--n", "4", "--seed", "3", "--non-fifo-prob", "0.6", "-o", str(path)]
    )
    assert rc == 0
    return path


class TestGen:
    def test_writes_instance(self, instance_file):
        doc = json.loads(instance_file.read_text())
        assert len(doc["packets"]) == 4
        assert doc["noise_power"] == 1.0

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            main(["gen", "--n", "5", "--seed", "9", "-o", str(path)])
        assert a.read_text() == b.read_text()

    def test_bad_config_exit_2(self, tmp_path):
        rc = main(["gen", "--n", "0", "-o", str(tmp_path / "x.json")])
        assert rc == 2


class TestSolveValidate:
    def test_solve_then_validate(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        assert main(["solve", str(instance_file), "-o", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        assert set(doc.keys()) == {"energy", "rates", "segments", "iterations"}
        assert main(["validate", str(instance_file), str(sched)]) == 0
        out = capsys.readouterr().out
        assert "OPTIMAL: yes" in out

    def test_validate_rejects_tampering(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "-o", str(sched)])
        doc = json.loads(sched.read_text())
        doc["segments"][0]["end"] -= 0.05  # underdeliver the first packet
        sched.write_text(json.dumps(doc))
        assert main(["validate", str(instance_file), str(sched)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_flags_suboptimal(self, tmp_path, capsys):
        # a feasible but lazy-split schedule must not pass as optimal
        inst = tmp_path / "inst.json"
        main(["gen", "--n", "1", "--seed", "1", "-o", str(inst)])
        doc = json.loads(inst.read_text())
        p = doc["packets"][0]
        half = (p["arrival"] + p["deadline"]) / 2
        rate = p["bits"] / (half - p["arrival"])
        sched = tmp_path / "sched.json"
        sched.write_text(
            json.dumps(
                {
                    "energy": (half - p["arrival"]) * (2 ** (2 * rate) - 1),
                    "rates": [{"id": 1, "rate": rate}],
                    "segments": [
                        {"id": 1, "start": p["arrival"], "end": half, "rate": rate}
                    ],
                    "iterations": [],
                }
            )
        )
        assert main(["validate", str(inst), str(sched)]) == 1
        assert "OPTIMAL: no" in capsys.readouterr().out

    def test_certificate_emitted(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "-o", str(sched)])
        rc = main(
            ["validate", str(instance_file), str(sched), "--certificate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        cert = json.loads(payload)
        assert set(cert.keys()) == {"beta", "gamma", "lambda"}

    def test_malformed_instance_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize(
        "packets, noise, reason",
        [
            ([(1, 1.0, 0.0, math.inf)], 1.0, "deadline must be finite"),
            ([(1, math.inf, 0.0, 2.0), (2, 1.0, 0.5, 1.0)], 1.0, "bits must be finite"),
            ([(1, 1.0, -math.inf, 2.0)], 1.0, "arrival must be finite"),
            ([("a", 1.0, 0.0, 2.0), (2, 1.0, 0.0, 2.0)], 1.0, "id must be an integer"),
            ([(1, 1.0, 0.0, 2.0)], math.inf, "noise_power must be positive and finite"),
        ],
        ids=["deadline-inf", "bits-inf", "arrival-minus-inf", "str-id", "noise-inf"],
    )
    def test_non_finite_or_non_integer_input_exit_2(
        self, tmp_path, capsys, packets, noise, reason
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "noise_power": noise,
                    "packets": [
                        {"id": i, "bits": b, "arrival": a, "deadline": d}
                        for i, b, a, d in packets
                    ],
                }
            )
        )
        assert main(["solve", str(bad)]) == 2
        assert reason in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_internal_error_exit_3(self, instance_file, monkeypatch):
        from txsched import InternalIdle
        from txsched import cli as cli_module

        def boom(instance, model):
            raise InternalIdle("synthetic")

        monkeypatch.setattr(cli_module, "solve", boom)
        assert main(["solve", str(instance_file)]) == 3


class TestOracleCompare:
    def test_oracle_output_shape(self, instance_file, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", str(instance_file), "--tol", "1e-12", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc.keys()) == {
            "energy",
            "rates",
            "iterations_run",
            "residual",
            "converged",
        }
        assert "segments" not in doc

    def test_compare_reports_gap(self, instance_file, capsys):
        rc = main(["compare", str(instance_file), "--tol", "1e-12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative gap" in out
        lines = out.splitlines()
        residual = [ln for ln in lines if ln.startswith("oracle residual:")]
        assert len(residual) == 1
        assert 0.0 <= float(residual[0].split(":")[1]) <= 1e-6
        assert "converged=True" in out
        assert not any(ln.startswith("note:") for ln in lines)

        # cut short, the oracle is an unconverged upper bound and says so
        assert main(["compare", str(instance_file), "--max-iters", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(ln.startswith("oracle residual:") for ln in lines)
        notes = [ln for ln in lines if ln.startswith("note:")]
        assert len(notes) == 1 and "unconverged upper bound" in notes[0]

    def test_monomial_model_flag(self, instance_file, tmp_path):
        sched = tmp_path / "sched.json"
        rc = main(
            [
                "solve", str(instance_file),
                "--power", "monomial", "--exponent", "2.5", "--scale", "0.5",
                "-o", str(sched),
            ]
        )
        assert rc == 0
        assert main(
            [
                "validate", str(instance_file), str(sched),
                "--power", "monomial", "--exponent", "2.5", "--scale", "0.5",
            ]
        ) == 0


class TestTraceBench:
    def test_trace_csv(self, instance_file, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", str(instance_file), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "packet,epoch,start,end,tau"
        row = lines[1].split(",")
        assert len(row) == 5
        float(row[2]), float(row[3]), float(row[4])

    def test_bench_table(self, capsys):
        assert main(["bench", "--sizes", "5,10", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "iters" in out
        assert len(out.strip().splitlines()) == 3
