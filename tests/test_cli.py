import json
import math
from pathlib import Path

import pytest

from txsched.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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

    @pytest.mark.parametrize("flag", ["--horizon=inf", "--bits-max=inf"])
    def test_infinite_config_exit_2(self, tmp_path, flag):
        # numpy would refuse the infinite range with an OverflowError
        assert main(["gen", "--n", "3", flag, "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("noise", ["0", "-1", "nan", "inf"])
    def test_bad_noise_exit_2(self, tmp_path, capsys, noise):
        # the instance file would not read back: no file, exit 2
        path = tmp_path / "x.json"
        assert main(["gen", "--n", "3", f"--noise={noise}", "-o", str(path)]) == 2
        assert "noise_power must be positive and finite" in capsys.readouterr().err
        assert not path.exists()

    def test_noise_written(self, tmp_path):
        path = tmp_path / "x.json"
        assert main(["gen", "--n", "3", "--noise", "0.25", "-o", str(path)]) == 0
        assert json.loads(path.read_text())["noise_power"] == 0.25

    @pytest.mark.parametrize("entry", json.loads((CORPUS / "MANIFEST.json").read_text()),
                             ids=lambda e: e["file"])
    def test_regenerates_corpus(self, tmp_path, entry):
        # the command line pins the generator and the writer as the
        # library path does: each manifest entry's flags give its file
        path = tmp_path / entry["file"]
        bits_min, bits_max = entry["bits_range"]
        args = ["gen", "--n", str(entry["n"]), "--seed", str(entry["seed"]),
                "--non-fifo-prob", str(entry["non_fifo_prob"]),
                "--min-window-frac", str(entry["min_window_frac"]),
                "--bits-min", str(bits_min), "--bits-max", str(bits_max), "-o", str(path)]
        assert main(args) == 0
        assert path.read_bytes() == (CORPUS / entry["file"]).read_bytes()


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

    def test_window_of_exactly_time_tol_certifies(self, tmp_path, capsys):
        # a 1e-9 s window next to a 10 s packet: its arrival and deadline
        # once fell on one grid instant, and solve exited 3
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"packets": [
            {"id": 1, "bits": 1.0, "arrival": 0.0, "deadline": 10.0},
            {"id": 2, "bits": 1.0, "arrival": 0.0, "deadline": 1e-9},
        ]}))
        sched = tmp_path / "sched.json"
        law = ["--power", "monomial"]
        assert main(["solve", str(inst), *law, "-o", str(sched)]) == 0
        assert main(["validate", str(inst), str(sched), *law, "--certificate"]) == 0
        out = capsys.readouterr().out
        assert "OPTIMAL: yes" in out
        assert set(json.loads(out[out.index("{"):])) == {"beta", "gamma", "lambda"}

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
            ([(1, 1.0, 0.0, 2.0)], True, "noise_power must be positive and finite"),
            # valid, but its optimal rate needs 2^6000 W of Shannon power
            ([(1, 3000.0, 0.0, 1.0)], 1.0, "packet 1: energy is not finite"),
            # bits, arrival and deadline are JSON numbers, and no bools
            ([(1, True, 0.0, 2.0)], 1.0, "packet 1: bits must be a number, got True"),
            ([(1, 1.0, "0.25", 2.0)], 1.0, "packet 1: arrival must be a number, got '0.25'"),
            ([(1, 1.0, 0.0, None)], 1.0, "packet 1: deadline must be a number, got None"),
            # the first packet that breaks a rule is named
            ([(1, 1.0, 0.0, 2.0), (2, False, 0.5, 1.0)], 1.0, "packet 2: bits must be a number"),
            ([(1, "1", 0.0, 2.0), (2, 1.0, 0.0, math.inf)], 1.0, "packet 1: bits must be a number"),
            # a JSON integer beyond a float's range reads as infinite
            ([(1, 10**400, 0.0, 2.0)], 1.0, "packet 1: bits must be finite, got 1000"),
            ([(1, 1.0, -(10**400), 2.0)], 1.0, "packet 1: arrival must be finite, got -1000"),
            ([(1, 1.0, 0.0, 2.0)], 10**400, "noise_power must be positive and finite"),
            ([(7, 1.0, 0.0, 2.0), (7, 1.0, 0.5, 1.0)], 1.0,
             "packet 7: id is repeated (first at entry 0)"),
        ],
        ids=[
            "deadline-inf", "bits-inf", "arrival-minus-inf", "str-id", "noise-inf",
            "noise-bool", "energy-inf", "bits-true", "arrival-str", "deadline-null",
            "second-bits-false", "str-bits-before-inf", "bits-too-large",
            "arrival-too-small", "noise-too-large", "repeated-id",
        ],
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

    @pytest.mark.parametrize(
        "where, pid, reason",
        [
            ("rates", 0, "rate entry for packet 0: ids run from 1 to 4"),
            ("rates", -1, "rate entry for packet -1: ids run from 1 to 4"),
            ("rates", 5, "rate entry for packet 5: ids run from 1 to 4"),
            ("rates", 2.9, "rate entry id 2.9 is not an integer"),
            ("rates", True, "rate entry id True is not an integer"),
            ("rates", "2", "rate entry id '2' is not an integer"),
            ("rates", 2, "rate entry for packet 2 is repeated"),
            ("segments", 1.5, "segment id 1.5 is not an integer"),
            ("segments", 10**30, "a segment id is out of range"),
        ],
        ids=[
            "id-0", "id-minus-1", "id-n-plus-1", "id-2.9", "id-true", "id-str",
            "id-repeated", "segment-id-1.5", "segment-id-1e30",
        ],
    )
    def test_out_of_range_rate_id_exit_2(
        self, instance_file, tmp_path, capsys, where, pid, reason
    ):
        # the instance has 4 packets; a rate entry is appended, or the
        # first segment's id replaced
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "-o", str(sched)])
        doc = json.loads(sched.read_text())
        if where == "rates":
            doc["rates"].append({"id": pid, "rate": 1.0})
        else:
            doc["segments"][0]["id"] = pid
        sched.write_text(json.dumps(doc))
        assert main(["validate", str(instance_file), str(sched)]) == 2
        err = capsys.readouterr().err
        assert reason in err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: doc["iterations"][0].update(rate=None), "iteration rate None is not a"),
            (lambda doc: doc["iterations"][0].update(rate=math.inf), "iteration rate inf is not a"),
            (lambda doc: doc["segments"][0].update(rate=math.nan), "segment rate nan is not a"),
            (lambda doc: doc["segments"][0].update(start=None), "segment start None is not a"),
            (lambda doc: doc["segments"][0].update(end=True), "segment end True is not a"),
            (lambda doc: doc["rates"][0].update(rate=-math.inf), "rate -inf is not a finite"),
            (lambda doc: doc["iterations"][0].update(pieces=[[0.0]]), "is not a (start, end) pair"),
            (lambda doc: doc["iterations"][0].update(packets=[None]), "packet None is not an int"),
            (lambda doc: doc.update(energy=None), "energy None is not a finite number"),
            (lambda doc: doc.update(energy=math.nan), "energy nan is not a finite number"),
            (lambda doc: doc.update(energy=10**400), "energy 1" + "0" * 400 + " is not a finite"),
            (lambda doc: doc.update(rates=[1, 2]), "schedule document is malformed"),
            (lambda doc: doc.update(segments=None), "schedule document is malformed"),
            (lambda doc: doc.__delitem__("energy"), "schedule document is malformed"),
            (lambda doc: [1, 2], "schedule document is malformed"),
        ],
        ids=[
            "iteration-rate-null", "iteration-rate-inf", "segment-rate-nan", "start-null",
            "end-true", "rate-minus-inf", "short-piece", "packet-null", "energy-null",
            "energy-nan", "energy-too-large", "rates-not-entries", "segments-null", "no-energy", "top-level-list",
        ],
    )
    def test_unreadable_schedule_exit_2(
        self, instance_file, tmp_path, capsys, edit, reason
    ):
        # a schedule of another shape, or with a number that is not
        # finite, is malformed input, not a schedule that fails
        # validation (exit 1) or one that passes
        sched = tmp_path / "sched.json"
        main(["solve", str(instance_file), "-o", str(sched)])
        doc = json.loads(sched.read_text())
        replaced = edit(doc)  # None where the edit changed doc in place
        sched.write_text(json.dumps(doc if replaced is None else replaced))
        assert main(["validate", str(instance_file), str(sched)]) == 2
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

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol=-1"], ["--max-iters=-1"]])
    def test_bad_tol_or_max_iters_exit_2(self, instance_file, capsys, command, flags):
        assert main([command, str(instance_file), *flags]) == 2
        assert "tol and max_iters must be non-negative" in capsys.readouterr().err

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
