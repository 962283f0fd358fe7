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

# The tolerance table: every float tolerance of the solver, the verifier
# and the power law, relative to what it compares or to the horizon.
# Instants: instants less than this fraction of the horizon apart are
# one instant (`Instance.time_tol`), and a window spans at least that.
TIME_REL_TOL = 1e-10
# Amounts of time: allocated time below this fraction of the horizon is
# float dust (`Instance.dust`).
DUST_REL_TOL = 1e-12
# Bits, rates and energy agree within this fraction of their size, and
# time below this fraction of its epoch counts as none there.
REL_TOL = 1e-9
# The certificate identity holds within this fraction of g(rate), and
# its slackness gamma * time within this fraction of gamma * epoch.
CERT_TOL = 1e-8
# Rates closer than this fraction tie in window selection.
RATE_TIE_REL = 1e-12


def bits_mismatch(delivered, bits, rates, dust: float) -> np.ndarray:
    """Where delivered bits miss the packets' bits by more than REL_TOL
    of them and more than each rate sends in `dust` of time: `edf_fill`
    may leave a member that much time short."""
    return ~(np.abs(delivered - bits) <= np.fmax(REL_TOL * bits, rates * dust))


class EmptyInstance(ValueError):
    """An instance must contain at least one packet."""


class InstanceFormatError(ValueError):
    """Instance JSON is structurally invalid."""


class MalformedPacket(ValueError):
    """A packet violates its basic invariants; identifies the offender."""

    def __init__(self, packet_id, reason: str):
        self.packet_id = packet_id
        self.reason = reason
        shown = packet_id.item() if isinstance(packet_id, np.generic) else packet_id
        super().__init__(f"packet {shown!r}: {reason}")


@dataclass(frozen=True)
class Packet:
    """One transmission job: `bits` must leave within [arrival, deadline]."""

    id: int
    bits: float
    arrival: float
    deadline: float

    def __post_init__(self):
        check_packets([self.id], [self.bits], [self.arrival], [self.deadline])


# floats first: the common case matches on the first type tried
_NUMBER_TYPES = (float, np.floating, int, np.integer)


def as_float(x) -> float | None:
    """`x` as a float if it is a number: an int or a float, numpy's
    included, and no bool (a bool is an int, but true is no number).
    None otherwise.  An int beyond a float's range reads as infinite."""
    if isinstance(x, _NUMBER_TYPES) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return None


def check_packets(ids, bits, arrivals, deadlines, tolerance: bool = True) -> np.ndarray:
    """Bits, arrivals and deadlines as the rows of one float array, once
    every packet rule holds; the one place the rules live.

    The rules are checked packet by packet, in input order: an integer id
    that is no bool and no earlier packet's, bits, arrival and deadline
    that are numbers (ints or floats, and no bools) and finite, positive
    bits, and a deadline after the arrival.  Then, unless `tolerance` is
    False, every window must span at least the time tolerance of the
    packets' own horizon, measured on the times `normalize_columns`
    stores: shifted so the earliest arrival is 0.  Raises MalformedPacket
    naming the first offender.
    """
    values = [[as_float(x) for x in c] for c in (bits, arrivals, deadlines)]
    table = np.array(values, dtype=float).reshape(3, -1)  # a non-number (None) reads as NaN
    b, a, d = table
    integer = [isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in ids]
    first: dict = {}  # each integer id's first position
    fresh = [ok and first.setdefault(i, k) == k for k, (i, ok) in enumerate(zip(ids, integer))]
    finite = np.isfinite(table)
    with np.errstate(invalid="ignore"):
        bad = ~np.array(fresh, dtype=bool) | ~finite.all(axis=0) | ~(b > 0) | ~(d > a)
    if bad.any():
        k = int(np.argmax(bad))
        fields = list(zip(("bits", "arrival", "deadline"), (bits[k], arrivals[k], deadlines[k])))
        reasons = [] if integer[k] else ["id must be an integer"]
        repeated = integer[k] and not fresh[k]
        reasons += [f"id is repeated (first at entry {first[ids[k]]})"] if repeated else []
        reasons += [f"{n} must be a number, got {v!r}" for (n, v), row in zip(fields, values) if row[k] is None]
        reasons += [f"{n} must be finite, got {v}" for (n, v), ok in zip(fields, finite[:, k]) if not ok]
        reasons += [] if b[k] > 0 else [f"bits must be positive, got {bits[k]}"]
        reasons.append(f"deadline {deadlines[k]} must exceed arrival {arrivals[k]}")
        raise MalformedPacket(ids[k], reasons[0])
    if tolerance and len(ids):
        t0 = a.min()
        tol = TIME_REL_TOL * float(d.max() - t0)
        short = np.flatnonzero((d - t0) - (a - t0) < tol)
        if short.size:
            k = int(short[0])
            raise MalformedPacket(
                ids[k],
                f"window [{arrivals[k]}, {deadlines[k]}] is shorter than the "
                f"instance's {tol} time tolerance",
            )
    return table


@dataclass(frozen=True, eq=False)
class Instance:
    """A normalized packet set, held as columns: sorted by arrival, ids
    dense 1..N, earliest arrival at 0, horizon = latest deadline.

    `columns` holds the bits, arrivals and deadlines, read-only, as the
    rows of one array; packet i is column i-1.  `id_map` translates the
    dense ids back to the ids the caller supplied (new id -> original
    id); it does not participate in equality.

    The `Packet` records and the epoch decomposition are built on first
    use and kept for the instance's lifetime.
    """

    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    horizon: float
    id_map: dict[int, int] = field(repr=False, default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.horizon == other.horizon and all(
            map(np.array_equal, self.columns, other.columns)
        )

    def __hash__(self):
        return hash((self.n, self.horizon))

    @property
    def n(self) -> int:
        return len(self.columns[0])

    @property
    def time_tol(self) -> float:
        """Instants closer than this are the same instant."""
        return TIME_REL_TOL * self.horizon

    @property
    def dust(self) -> float:
        """Allocated time shorter than this is float dust."""
        return DUST_REL_TOL * self.horizon

    def bits(self) -> np.ndarray:
        return self.columns[0]

    def arrivals(self) -> np.ndarray:
        return self.columns[1]

    def deadlines(self) -> np.ndarray:
        return self.columns[2]

    @cached_property
    def packets(self) -> tuple[Packet, ...]:
        """The packets as `Packet` records, in id order."""
        rows = zip(*(c.tolist() for c in self.columns))
        return tuple(Packet(i + 1, b, a, d) for i, (b, a, d) in enumerate(rows))

    @cached_property
    def decomposition(self) -> EpochDecomposition:
        """`decompose(self)`, built on first read."""
        return decompose(self)


@dataclass(frozen=True, eq=False)
class EpochDecomposition:
    """The instant grid and each packet's epoch range, as read-only arrays.

    Epoch j (1-based, matching packet ids) covers
    [instants[j-1], instants[j]] and is column j-1 of every per-epoch
    array.  A packet's feasible epochs always form one contiguous run,
    so packet i is stored as the half-open column range
    [lo[i-1], hi[i-1]): lo is the grid index of its arrival and hi the
    grid index of its deadline.  Two decompositions are equal when their
    grids and ranges are.
    """

    instants: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, EpochDecomposition):
            return NotImplemented
        mine, theirs = (self.instants, self.lo, self.hi), (other.instants, other.lo, other.hi)
        return all(map(np.array_equal, mine, theirs))

    @property
    def m(self) -> int:
        return len(self.instants) - 1

    @cached_property
    def lengths(self) -> np.ndarray:
        """Each epoch's length, read-only."""
        return _read_only(np.diff(self.instants))

    @cached_property
    def coverage(self) -> np.ndarray:
        """The number of packets that can transmit in each epoch, read-only."""
        return _read_only(covered(self.lo, self.hi, self.m))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every feasible (packet row, epoch column) pair, 0-based, in
        packet order and ascending epoch order within a packet."""
        return self.pairs_in(np.ones(self.m, dtype=bool))

    def pairs_in(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The feasible pairs whose epoch column is set in the boolean
        mask `columns`, in `pairs()` order."""
        # rank[c] counts the set columns left of c, so packet i meets the
        # set columns rank[lo[i]] to rank[hi[i]] of the flattened mask
        rank = np.concatenate(([0], np.cumsum(columns)))
        start = rank[self.lo]
        counts = rank[self.hi] - start
        rows = np.repeat(np.arange(len(self.lo)), counts)
        first = np.cumsum(counts) - counts  # position of each packet's first pair
        picked = np.arange(counts.sum()) + np.repeat(start - first, counts)
        return rows, np.flatnonzero(columns)[picked]


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, made read-only in place."""
    array.flags.writeable = False
    return array


def runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs of set epochs in the boolean per-epoch `mask`:
    the grid indices where each run opens and where it closes."""
    edges = np.concatenate(([False], mask, [False]))
    flips = np.flatnonzero(edges[1:] != edges[:-1])
    return flips[0::2], flips[1::2]


def covered(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """How many of the epoch ranges [lo[k], hi[k]) hold each of m epochs."""
    steps = np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1)
    return np.cumsum(steps)[:m]


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
        return float(self.at([i], [j])[0])

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The values in cells (rows[k], cols[k]), 0 where none is held,
        found by binary search in the cells' row-major order."""
        m = self.shape[1]
        keys = self.rows * m + self.cols
        if not len(keys):
            return np.zeros(len(rows))
        want = np.asarray(rows) * m + np.asarray(cols)
        k = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[k] == want, self.values[k], 0.0)

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.values, minlength=self.shape[0])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.values, minlength=self.shape[1])

    def on_pairs(self, decomp: EpochDecomposition) -> np.ndarray:
        """The table's value at every feasible pair, in `decomp.pairs()`
        order; cells outside the packets' ranges are left out."""
        return self.at(*decomp.pairs())


def normalize_instance(raw_packets) -> Instance:
    """`normalize_columns` of records with `id`, `bits`, `arrival` and
    `deadline` attributes, such as `Packet`s."""
    packets = list(raw_packets)
    return normalize_columns(
        *([getattr(p, name) for p in packets] for name in ("id", "bits", "arrival", "deadline"))
    )


def normalize_columns(ids, bits, arrivals, deadlines) -> Instance:
    """Check, sort, shift, and relabel packets given as columns.

    The packets must pass `check_packets`.  They are sorted by (arrival,
    deadline, id), all times are shifted so the earliest arrival is 0,
    and ids are reassigned 1..N in sorted order; the original ids are
    kept in the returned instance's id_map.
    """
    if not len(ids):
        raise EmptyInstance("no packets")
    b, a, d = check_packets(ids, bits, arrivals, deadlines)
    order = np.lexsort((np.asarray(ids), d, a))
    t0 = a.min()
    table = _read_only(np.stack([b[order], a[order] - t0, d[order] - t0]))
    id_map = {k + 1: ids[i] for k, i in enumerate(order.tolist())}
    return Instance(tuple(table), float(d.max() - t0), id_map)


def decompose(instance: Instance) -> EpochDecomposition:
    """Build the instant grid and each packet's epoch range."""
    # Greedy clustering anchored on each cluster's first instant: an
    # instant opens a new cluster once it lies the time tolerance or more
    # past that representative, so a run of instants spaced just under
    # the tolerance still splits once it drifts past it, and the two ends
    # of a window, at least the tolerance apart, never share a cluster.
    tol = instance.time_tol
    raw = np.unique(np.concatenate([instance.arrivals(), instance.deadlines()]))
    reps: list[float] = []
    for v in raw.tolist():
        if not reps or v - reps[-1] >= tol:
            reps.append(v)
    # A raw instant's grid index is the representative at or just below
    # it (its cluster start), which is less than the time tolerance away.
    grid = np.array(reps)
    lo, hi = np.searchsorted(grid, instance.columns[1:], side="right") - 1
    return EpochDecomposition(*map(_read_only, (grid, lo, hi)))


def is_non_fifo(instance: Instance) -> set[int]:
    """Ids of packets whose window is strictly nested inside an
    earlier-arriving packet's window (deadline order inversion)."""
    # rows ascend with arrivals, so the packets that arrive strictly
    # earlier than row i are the rows before its arrival's first row
    a, d = instance.arrivals(), instance.deadlines()
    first = np.searchsorted(a, a, side="left")
    latest = np.concatenate(([-np.inf], np.maximum.accumulate(d)))[first]
    return set((np.flatnonzero(latest > d) + 1).tolist())


def _check_noise_power(value):
    """An instance document's noise power must be a positive, finite
    number."""
    number = as_float(value)
    if number is None or not 0 < number < math.inf:
        raise InstanceFormatError(f"noise_power must be positive and finite, got {value}")


def _floats(values: np.ndarray) -> list[str]:
    """The text `json.dumps` writes for each float of an array.  Each
    distinct bit pattern is formatted once: a schedule's rates repeat."""
    if not len(values):
        return []
    bits, which = np.unique(np.asarray(values, dtype=float).view(np.uint64), return_inverse=True)
    texts = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
    return [texts[k] for k in which.tolist()]


def instance_to_json(instance: Instance, noise_power: float = 1.0) -> str:
    """Serialize to the on-disk instance format: the text of
    `json.dumps(doc, indent=2)`, written from the columns.  The noise
    power must be one `instance_from_json` reads back; a numpy number
    is written as the Python number it holds."""
    _check_noise_power(noise_power)
    noise = json.dumps(noise_power.item() if isinstance(noise_power, np.generic) else noise_power)
    n = instance.n
    texts = _floats(np.concatenate(instance.columns))  # bits, then arrivals, then deadlines
    packets = ",\n    ".join(
        f'{{\n      "id": {i},\n      "bits": {b},\n      "arrival": {a},\n      "deadline": {d}\n    }}'
        for i, b, a, d in zip(range(1, n + 1), texts, texts[n:], texts[2 * n :])
    )
    return f'{{\n  "noise_power": {noise},\n  "packets": [\n    {packets}\n  ]\n}}\n'


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
    _check_noise_power(noise_power)
    columns = ([], [], [], [])
    for k, entry in enumerate(doc["packets"]):
        try:
            row = (entry["id"], entry["bits"], entry["arrival"], entry["deadline"])
        except (KeyError, TypeError) as exc:
            # entries are read in order: a packet before this entry that
            # breaks a rule is named first
            check_packets(*columns, tolerance=False)
            raise InstanceFormatError(f"packet entry {k} is malformed: {exc}") from exc
        for column, value in zip(columns, row):
            column.append(value)
    return normalize_columns(*columns), float(noise_power)
