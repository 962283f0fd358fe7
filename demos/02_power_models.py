"""The power-rate laws and the marginal-energy function g.

Transmitting faster costs disproportionately more power, so stretching
a transfer over more time always saves energy; g(r) = r f'(r) - f(r)
measures exactly how much per second of extra time.  Its inverse turns
shadow prices back into rates, which is what optimality certificates
are made of.
"""

from txsched import Monomial, Shannon

shannon = Shannon(noise_power=1.0)
mono = Monomial(exponent=2.0, scale=1.0)

print(f"{'rate':>6} {'f shannon':>12} {'g shannon':>12} {'f r^2':>10} {'g r^2':>10}")
for r in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]:
    print(
        f"{r:>6.2f} {shannon.power(r):>12.4f} "
        f"{shannon.g(r):>12.4f} "
        f"{mono.power(r):>10.4f} {mono.g(r):>10.4f}"
    )

print("\ng is invertible; round-trips recover the rate:")
for r in [0.25, 1.0, 3.5]:
    y = shannon.g(r)
    print(f"  g({r}) = {y:.6f}  ->  g_inverse({y:.6f}) = "
          f"{shannon.g_inverse(y):.9f}")

print("\nstretching 4 bits over more time (Shannon, unit noise):")
for T in [1.0, 2.0, 4.0, 8.0]:
    energy = T * shannon.power(4.0 / T)
    print(f"  {T:>4.0f} s at rate {4.0 / T:>4.1f}: {energy:>10.3f} J")
print("slower is always cheaper, which is why deadlines cost energy")
