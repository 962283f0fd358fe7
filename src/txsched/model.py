"""Problem instances and the epoch decomposition.

An instance is a set of packets, each carrying a number of bits and a
time window [arrival, deadline] during which those bits must leave the
transmitter.  All later machinery works on the *epoch grid*: the sorted,
deduplicated set of every arrival and deadline instant.  Between two
adjacent grid instants the set of transmittable packets is constant,
which makes the epoch the natural unit for time bookkeeping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Two instants of an instance are the same instant when they lie within
# this fraction of its horizon (`Instance.time_tol`).  The grid, window
# containment and segment checks all use that one tolerance, so the
# schedules built on the grid stay consistent with it, and rescaling
# time moves the tolerance with it.
TIME_REL_TOL = 1e-10


class EmptyInstance(ValueError):
    """An instance must contain at least one packet."""


class InstanceFormatError(ValueError):
    """Instance JSON is structurally invalid."""


class MalformedPacket(ValueError):
    """A packet violates its basic invariants; identifies the offender."""

    def __init__(self, packet_id, reason: str):
        self.packet_id = packet_id
        self.reason = reason
        super().__init__(f"packet {packet_id!r}: {reason}")


@dataclass(frozen=True)
class Packet:
    """One transmission job: `bits` must leave within [arrival, deadline]."""

    id: int
    bits: float
    arrival: float
    deadline: float

    def __post_init__(self):
        if not isinstance(self.id, (int, np.integer)) or isinstance(self.id, bool):
            raise MalformedPacket(self.id, "id must be an integer")
        for name in ("bits", "arrival", "deadline"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MalformedPacket(self.id, f"{name} must be finite, got {value}")
        if not self.bits > 0:
            raise MalformedPacket(self.id, f"bits must be positive, got {self.bits}")
        if not self.deadline > self.arrival:
            raise MalformedPacket(
                self.id,
                f"deadline {self.deadline} must exceed arrival {self.arrival}",
            )

    @property
    def window(self) -> tuple[float, float]:
        return (self.arrival, self.deadline)

    @property
    def window_length(self) -> float:
        return self.deadline - self.arrival


@dataclass(frozen=True)
class Instance:
    """A normalized packet set: sorted by arrival, ids dense 1..N,
    earliest arrival at 0, horizon = latest deadline.

    `id_map` translates the dense ids back to the ids the caller
    supplied (new id -> original id); it does not participate in
    equality.

    The packet arrays and the epoch decomposition are built on first
    use and kept for the instance's lifetime; the arrays are read-only.
    """

    packets: tuple[Packet, ...]
    horizon: float
    id_map: dict[int, int] = field(compare=False, repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.packets)

    @property
    def time_tol(self) -> float:
        """Instants closer than this are the same instant."""
        return TIME_REL_TOL * self.horizon

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bits, arrivals and deadlines, as rows of one read-only array."""
        ps = self.packets
        table = np.array(
            [[p.bits for p in ps], [p.arrival for p in ps], [p.deadline for p in ps]]
        )
        table.flags.writeable = False
        return tuple(table)

    def bits(self) -> np.ndarray:
        return self._columns[0]

    def arrivals(self) -> np.ndarray:
        return self._columns[1]

    def deadlines(self) -> np.ndarray:
        return self._columns[2]

    @cached_property
    def decomposition(self) -> EpochDecomposition:
        """`decompose(self)`, built on first read."""
        return decompose(self)


@dataclass(frozen=True)
class EpochDecomposition:
    """The instant grid and each packet's epoch range.

    Epoch j (1-based, matching packet ids) covers
    [instants[j-1], instants[j]] and is column j-1 of every per-epoch
    array.  A packet's feasible epochs always form one contiguous run,
    so packet i is stored as the half-open column range
    [lo[i-1], hi[i-1]): lo is the grid index of its arrival and hi the
    grid index of its deadline.  The ranges are tuples of ints, so two
    decompositions compare equal exactly when their grids and ranges do.

    `epoch_sets_per_packet` and `packet_sets_per_epoch` are the same
    containment relation as 1-based frozensets, derived on demand.
    """

    instants: tuple[float, ...]
    epochs: tuple[tuple[float, float], ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.epochs)

    def epoch_lengths(self) -> np.ndarray:
        return np.diff(np.array(self.instants))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every feasible (packet row, epoch column) pair, 0-based, in
        packet order and ascending epoch order within a packet."""
        lo = np.array(self.lo, dtype=np.intp)
        counts = np.array(self.hi, dtype=np.intp) - lo
        rows = np.repeat(np.arange(len(lo)), counts)
        first = np.cumsum(counts) - counts  # position of each packet's first pair
        cols = np.arange(counts.sum()) + np.repeat(lo - first, counts)
        return rows, cols

    def pair_positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Where each (row, column) cell sits in `pairs()`, or -1 for a
        cell outside its packet's epoch range."""
        lo = np.array(self.lo, dtype=np.intp)
        hi = np.array(self.hi, dtype=np.intp)
        first = np.cumsum(hi - lo) - (hi - lo)
        inside = (cols >= lo[rows]) & (cols < hi[rows])
        return np.where(inside, first[rows] + cols - lo[rows], -1)

    def coverage(self) -> np.ndarray:
        """Number of packets that can transmit in each epoch column."""
        steps = np.bincount(self.lo, minlength=self.m + 1) - np.bincount(
            self.hi, minlength=self.m + 1
        )
        return np.cumsum(steps)[: self.m]

    @property
    def epoch_sets_per_packet(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(range(a + 1, d + 1)) for a, d in zip(self.lo, self.hi))

    @property
    def packet_sets_per_epoch(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.m)]
        for i, (a, d) in enumerate(zip(self.lo, self.hi), start=1):
            for col in range(a, d):
                sets[col].add(i)
        return tuple(frozenset(s) for s in sets)

    def live_epochs(self) -> list[int]:
        """1-based indices of epochs some packet can transmit in."""
        return (np.flatnonzero(self.coverage()) + 1).tolist()

    def live_region(self) -> list[tuple[float, float]]:
        """Union of live epochs, merged into maximal intervals."""
        out: list[tuple[float, float]] = []
        for j in self.live_epochs():
            s, e = self.epochs[j - 1]
            if out and out[-1][1] == s:
                out[-1] = (out[-1][0], e)
            else:
                out.append((s, e))
        return out


@dataclass(frozen=True, eq=False)
class PairTable:
    """A sparse packet x epoch table of `shape` (N, M): cell
    (rows[k], cols[k]) holds values[k], and every other cell is 0.

    Rows and columns are 0-based (packet id - 1, epoch - 1).  The cells
    are distinct and ordered by row, then column, so a row or column
    sum adds its values in that order.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, table: np.ndarray) -> "PairTable":
        """The nonzero cells of a 2-D array."""
        rows, cols = np.nonzero(table)
        return cls(rows, cols, table[rows, cols], table.shape)

    def __getitem__(self, cell: tuple[int, int]) -> float:
        i, j = cell
        hit = np.flatnonzero((self.rows == i) & (self.cols == j))
        return float(self.values[hit[0]]) if hit.size else 0.0

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.values, minlength=self.shape[0])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.values, minlength=self.shape[1])

    def on_pairs(self, decomp: EpochDecomposition) -> np.ndarray:
        """The table's value at every feasible pair, in `decomp.pairs()`
        order; cells outside the packets' ranges are left out."""
        out = np.zeros(sum(decomp.hi) - sum(decomp.lo))
        pos = decomp.pair_positions(self.rows, self.cols)
        inside = pos >= 0
        out[pos[inside]] = self.values[inside]
        return out


def normalize_instance(raw_packets) -> Instance:
    """Sort, shift, and relabel packets into canonical form.

    Packets are sorted by (arrival, deadline, id), all times are shifted
    so the earliest arrival is 0, and ids are reassigned 1..N in sorted
    order; the original ids are kept in the returned instance's id_map.
    """
    packets = list(raw_packets)
    if not packets:
        raise EmptyInstance("no packets")
    t0 = min(p.arrival for p in packets)
    horizon = max(p.deadline for p in packets) - t0
    tol = TIME_REL_TOL * horizon
    for p in packets:
        if p.deadline - p.arrival < tol:
            raise MalformedPacket(
                p.id,
                f"window [{p.arrival}, {p.deadline}] is shorter than the "
                f"instance's {tol} time tolerance",
            )
    packets.sort(key=lambda p: (p.arrival, p.deadline, p.id))
    shifted = [
        Packet(i + 1, p.bits, p.arrival - t0, p.deadline - t0)
        for i, p in enumerate(packets)
    ]
    id_map = {i + 1: p.id for i, p in enumerate(packets)}
    return Instance(tuple(shifted), horizon, id_map)


def decompose(instance: Instance) -> EpochDecomposition:
    """Build the instant grid, the epochs and each packet's epoch range."""
    # Greedy clustering anchored on each cluster's first instant: an
    # instant joins the current cluster while it lies within the time
    # tolerance of that representative, so a run of instants spaced
    # just under the tolerance still splits once it drifts past it.
    tol = instance.time_tol
    raw = np.unique(np.concatenate([instance.arrivals(), instance.deadlines()]))
    reps: list[float] = []
    for v in raw.tolist():
        if not reps or v - reps[-1] > tol:
            reps.append(v)
    # A raw instant's grid index is the representative at or just below
    # it (its cluster start), which is within the time tolerance.
    grid = np.array(reps)
    lo = np.searchsorted(grid, instance.arrivals(), side="right") - 1
    hi = np.searchsorted(grid, instance.deadlines(), side="right") - 1
    return EpochDecomposition(
        instants=tuple(reps),
        epochs=tuple(zip(reps, reps[1:])),
        lo=tuple(lo.tolist()),
        hi=tuple(hi.tolist()),
    )


def is_non_fifo(instance: Instance) -> set[int]:
    """Ids of packets whose window is strictly nested inside an
    earlier-arriving packet's window (deadline order inversion)."""
    a = instance.arrivals()
    d = instance.deadlines()
    out = set()
    for i, p in enumerate(instance.packets):
        if np.any((a < p.arrival) & (d > p.deadline)):
            out.add(p.id)
    return out


def instance_to_json(instance: Instance, noise_power: float = 1.0) -> str:
    """Serialize to the on-disk instance format."""
    doc = {
        "noise_power": noise_power,
        "packets": [
            {"id": p.id, "bits": p.bits, "arrival": p.arrival, "deadline": p.deadline}
            for p in instance.packets
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> tuple[Instance, float]:
    """Parse and normalize an instance document.

    Returns the instance together with the channel noise power
    (defaulting to 1.0 when absent).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("packets"), list):
        raise InstanceFormatError("instance document must contain a 'packets' list")
    noise_power = doc.get("noise_power", 1.0)
    if not isinstance(noise_power, (int, float)) or not (
        math.isfinite(noise_power) and noise_power > 0
    ):
        raise InstanceFormatError(
            f"noise_power must be positive and finite, got {noise_power}"
        )
    raw = []
    for k, entry in enumerate(doc["packets"]):
        try:
            raw.append(
                Packet(
                    id=entry["id"],
                    bits=float(entry["bits"]),
                    arrival=float(entry["arrival"]),
                    deadline=float(entry["deadline"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise InstanceFormatError(f"packet entry {k} is malformed: {exc}") from exc
    return normalize_instance(raw), float(noise_power)
