"""A two-packet walkthrough of the optimal schedule.

A long packet owns the window [0, 2]; a short urgent one arrives at 0.5
and must be gone by 1.0.  The urgent window is the busiest stretch of
the timeline, so it is scheduled first at its minimum rate, and the
long packet spreads over whatever time remains at a single lower rate.
"""

import numpy as np

from txsched import (
    Packet,
    Shannon,
    decompose,
    normalize_instance,
    solve,
)

instance = normalize_instance(
    [
        Packet(1, bits=2.0, arrival=0.0, deadline=2.0),
        Packet(2, bits=1.0, arrival=0.5, deadline=1.0),
    ]
)
model = Shannon(noise_power=1.0)

# The instance holds its packets as columns, packet i at position i-1.
print("packets:")
for i, (b, a, d) in enumerate(zip(instance.bits(), instance.arrivals(),
                                  instance.deadlines()), start=1):
    print(f"  #{i}: {b} bits in [{a}, {d}]")

# The timeline splits at every arrival and deadline.
decomp = decompose(instance)
print("\nepoch grid:", decomp.instants.tolist())
# Packet i can transmit in the epoch columns lo[i-1] <= c < hi[i-1].
# Epoch j runs from grid instant j-1 to grid instant j.
grid = decomp.instants.tolist()
for j, (s, e) in enumerate(zip(grid, grid[1:]), start=1):
    feas = [i for i, (a, d) in enumerate(zip(decomp.lo, decomp.hi), start=1) if a < j <= d]
    print(f"  epoch {j} = [{s}, {e}]  transmittable: {feas}")

schedule = solve(instance, model)

print("\nper-round selection (rates never increase):")
for g, step in enumerate(schedule.trace.steps, start=1):
    pieces = ", ".join(f"[{s:.3g}, {e:.3g}]" for s, e in step.pieces)
    print(f"  round {g}: packets {sorted(step.members)} at rate "
          f"{step.rate:.6g} on {pieces}")

# The timeline is a table of four columns, one row per segment.
seg = schedule.segments
print("\ntimeline:")
for pid, start, end, rate in zip(seg.packet, seg.start, seg.end, seg.rate):
    print(f"  [{start:.3f}, {end:.3f}] packet {pid} at {rate:.6g} bit/s")

print("\nrates:", np.round(schedule.rates, 12))
print(f"energy: {schedule.energy:.6f} J")
print("(the urgent packet runs at 2, the long one at 4/3 around it)")
