"""Checking a schedule's optimality and exhibiting its certificate.

Optimality of a feasible schedule is equivalent to three checkable
conditions: constant per-packet rates, no idle time in any epoch with
transmittable packets, and rate dominance inside every epoch (whoever
transmits there is at least as fast as whoever waits).  Schedules that
pass admit Lagrange multipliers; schedules that do not are beaten by a
reshuffle, and the report says where.
"""

import numpy as np

from txsched import (
    Packet,
    Shannon,
    check_optimality,
    epoch_times,
    extract_certificate,
    normalize_instance,
    schedule_from_allocation,
    solve,
)

model = Shannon(1.0)
instance = normalize_instance(
    [
        Packet(1, bits=2.0, arrival=0.0, deadline=2.0),
        Packet(2, bits=1.0, arrival=0.5, deadline=1.0),
    ]
)

schedule = solve(instance, model)
report = check_optimality(instance, schedule, model)
print("solver output optimal:", report.optimal)
conditions = report.epoch_rate_conditions
for epoch, rate in zip(conditions.epoch.tolist(), conditions.rate.tolist()):
    positive, zero = conditions.members(epoch)
    print(f"  epoch {epoch}: transmitting {sorted(positive)} "
          f"at {rate:.4g}, waiting {sorted(zero)}")

cert = extract_certificate(instance, schedule, model)
print("\nmultipliers:")
print("  beta (epoch time prices):   ", np.round(cert.beta, 4))
print("  lambda (bit prices):        ", np.round(cert.lam, 4))
print("  gamma[packet 1, epoch 2] =  ", round(cert.gamma[0, 1], 4),
      "(the energy margin by which packet 2 outbids it there)")

# Nudge the allocation: give the slow packet a slice of the busy epoch.
# epoch_times books each packet's time per epoch from the segments, as
# a table of its nonzero cells; spread them out densely.
booked = epoch_times(instance, schedule)
tau = np.zeros(booked.shape)
tau[booked.rows, booked.cols] = booked.values
tau[0, 1] += 0.05
tau[1, 1] -= 0.05
worse = schedule_from_allocation(instance, tau, model)
report = check_optimality(instance, worse, model)
print("\nafter moving 0.05 s of the busy epoch to the slow packet:")
print(f"  energy {schedule.energy:.6f} -> {worse.energy:.6f} J")
print("  still optimal?", report.optimal)
for epoch in report.epoch_rate_conditions.failed():
    positive, _ = report.epoch_rate_conditions.members(epoch)
    print(f"  violated in epoch {epoch}: rates "
          f"{[round(float(worse.rates[i - 1]), 4) for i in sorted(positive)]}"
          " share the epoch but differ")
