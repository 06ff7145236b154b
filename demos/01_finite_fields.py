"""Small finite fields: deterministic moduli, packed elements, traces.

Every field F_{p^n} here is realized as F_p[x]/(m(x)) where m is the monic
irreducible polynomial of degree n with the smallest packed value, so every
element encoding is reproducible across runs and machines.  Elements are
plain integers: sum(c_i x^i) is stored as sum(c_i p^i).
"""

from towerbound.ff import FieldParams, make_ext_field

p2 = FieldParams(2)
p3 = FieldParams(3)

print("== construction ==")
for params, n in [(p2, 1), (p2, 2), (p2, 10), (p3, 2), (p3, 9)]:
    F = make_ext_field(params, n)
    print(f"F_{params.p}^{n}: order {F.order}, modulus coefficients {F.modulus}")

print()
print("== arithmetic in F_4 ==")
F4 = make_ext_field(p2, 2)
g = 2  # the class of x; x^2 = x + 1 under the modulus
print(f"g * g = {F4.mul(g, g)}  (packed 3 = x + 1, i.e. g^2 = g + 1)")
print(f"g^3   = {F4.pow(g, 3)}  (the multiplicative group has order 3)")

print()
print("== absolute traces ==")
print("F_4:", {a: F4.trace(a) for a in range(F4.order)})
print("  Tr(0) = Tr(1) = 0 and Tr(g) = Tr(g+1) = 1: each value hit |F|/p times.")

F243 = make_ext_field(p3, 5)
counts = {}
for a in range(F243.order):
    counts[F243.trace(a)] = counts.get(F243.trace(a), 0) + 1
print(f"F_3^5 trace distribution: {counts}")

print()
print("== the additive equation w^p - w = u ==")
F8 = make_ext_field(p2, 3)
for u in range(F8.order):
    sols = F8.solve_additive(u)
    status = f"{len(sols)} roots" if sols else "no roots"
    print(f"  u = {u}: trace {F8.trace(u)}, {status}")
print("solvable exactly when the trace vanishes; this is what decides how")
print("places split in the degree-p covers of the other demos.")
