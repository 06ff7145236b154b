"""Certifying infinite towers and reading off the A(2) and A(3) bounds.

For a plan (S, nu, t): the generator rank of the relevant Galois group is
at least d = 1 + sum of local unit ranks - t, and the relation slack at
most r - d = sum of local binomial bounds + t - 1.  A finite nontrivial
p-group must satisfy r - d > d^2/4 - d, so

    margin = d^2 - 4d - 4(r - d) >= 0

is a proof that the tower is infinite, and then

    A(q) >= t / (g - 1 + conductor/2)

with the conductor measured either worst-case (plain) or damped per place
(refined).  All arithmetic is exact; decimals are display only.
"""

import dataclasses

from towerbound import cft, cli, config, cover

CASES = [
    ("f2_tower1", "tower1", "first A(2) tower"),
    ("f2_tower2", "tower2", "second A(2) tower (the headline A(2) bound)"),
    ("f3_tower", "deg8_only", "A(3) tower, 46 places of degree 8"),
    ("f3_tower", "mixed", "A(3) tower, mixed degrees (the headline A(3) bound)"),
]

for cfg_name, plan_name, label in CASES:
    doc = config.load_config(cfg_name)
    on, plan = doc.plans[plan_name]
    spectrum = cover.assemble_spectrum(doc.covers[on], max(10 if doc.params.p == 2 else 9,
                                                           max(f for f, _, _ in plan.entries)))
    plan = dataclasses.replace(plan, available_spectrum=spectrum)
    cert = cft.certify_tower(spectrum.genus, plan)
    print(f"== {label} ==")
    print(f"  {plan.describe()}, genus {cert.genus}")
    print(f"  d >= {cert.d_lower}, r - d <= {cert.rd_upper}, margin {cert.gs_margin} "
          f"-> {'INFINITE' if cert.infinite else 'not certified'}")
    print(f"  plain   A({doc.params.q}) >= {cli.rational_str(cert.bound)} "
          f"= {cli.truncate_decimal(cert.bound)}")
    print(f"  refined A({doc.params.q}) >= {cli.rational_str(cert.bound_refined)} "
          f"= {cli.truncate_decimal(cert.bound_refined)}")
    for w in cert.warnings:
        print(f"  note: {w}")
    print()

print("What fails when t is pushed to the side-condition boundary:")
doc = config.load_config("f2_tower1")
plan = dataclasses.replace(doc.plans["tower1"][1], t=231)
cert = cft.certify_tower(276, plan)
print(f"  t = 231: d >= {cert.d_lower}, r - d <= {cert.rd_upper}, "
      f"margin {cert.gs_margin} -> {'INFINITE' if cert.infinite else 'not certified'}")
