"""Searching plan space, and comparing the two inequality systems.

The optimizer decides every multiplicity vector over the allowed degrees
(places of equal degree are interchangeable in all the formulas), the
multiplicities at one degree in closed form, keeps the plans that certify,
and ranks them by the refined bound.  On all three
towers the published hand-picked plan turns out to be the optimum of its
search space.

The second half evaluates known rank-2 tower constructions under both
bound systems; the sharper system certifies towers with more split places.
"""

import dataclasses

from towerbound import cli, config, cover, search

for cfg_name in ("f2_tower1", "f2_tower2", "f3_tower"):
    doc = config.load_config(cfg_name)
    on, space = doc.searches["default"]
    spectrum = cover.assemble_spectrum(doc.covers[on], max(space.degrees))
    result = search.optimize(dataclasses.replace(space, spectrum=spectrum, top_n=3))
    print(f"== search over {on} (degrees {space.degrees[0]}..{space.degrees[-1]}) ==")
    print(f"  {result.candidates_evaluated} candidates, {result.certified_count} certify")
    for i, (plan, cert) in enumerate(result.ranked):
        print(f"  #{i + 1}: {plan.describe()}")
        print(f"       margin {cert.gs_margin}, "
              f"A({plan.params.q}) >= {cli.rational_str(cert.bound_refined)} "
              f"= {cli.truncate_decimal(cert.bound_refined)}")
    print()

print("== the two inequality systems on known rank-2 towers ==")
doc = config.load_config("remark_comparisons")
for name, inp in sorted(doc.compares.items()):
    res = search.compare_methods(inp)
    print(f"{name}: s={inp.s} l={inp.l} t={inp.t} s'={inp.s_prime} |T|={inp.t_size}")
    for label, pair in (("usual", res.usual), ("ours", res.ours)):
        verdict = "infinite" if pair.certifies else "inconclusive"
        print(f"   {label:>5}: d >= {pair.d_lower}, r - d <= {pair.rd_upper} -> {verdict}")
