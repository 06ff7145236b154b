"""The base curves: point counts, place spectra, zeta consistency.

Three explicit affine models carry the whole construction:

    E  : y^2 + y = x^3 + x          over F_2, genus 1, 5 rational places
    H  : y^2 + (x^3+x+1) y = x^2+x  over F_2, genus 2, 6 rational places
    E3 : y^2 = x^3 - x + 1          over F_3, genus 1, 7 rational places

N_n counts points over F_{q^n} (affine solutions plus declared infinite
places); Moebius inversion turns the N_n into the place spectrum a_d; and
the counts are re-derived from the L-polynomial as a check, which needs
N_n up to n = 2g.
"""

from towerbound import config, curve

for cfg_name, curve_name, d_max in [
    ("f2_tower1", "P1", 3),
    ("f2_tower1", "E", 8),
    ("f2_tower2", "H", 5),
    ("f3_tower", "E3", 5),
]:
    doc = config.load_config(cfg_name)
    model = doc.curves[curve_name]
    reach = max(d_max, 2 * model.genus)
    spec = curve.spectrum_from_counts(model, reach)
    print(f"== {curve_name} over F_{model.params.q} (genus {model.genus}) ==")
    print(f"  N_n (n <= {reach}): {[spec.n_map[n] for n in range(1, reach + 1)]}")
    print(f"  a_d (d <= {d_max}): {list(spec.a_tuple(d_max))}")
    z = curve.zeta_check(spec)
    print(f"  {z.describe()}")
    if z.predicted:
        print(f"  counts re-predicted from L: {dict(z.predicted)}")
    print()

print("The spectra show where ramification can be placed: E has 4 unramified")
print("degree-4 places and 4 of degree 5; E3 has 42 places of degree 5 and")
print("hundreds of degree 8 and 9, which is what the F_3 tower exploits.")
