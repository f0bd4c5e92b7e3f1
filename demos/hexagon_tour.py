"""Tour of the core pipeline on the hexagon generated by (1,0), (0,1), (1,1).

Runs the counting formula, the brute-force oracle, and the matroid
decomposition side by side, then checks the shape of the resulting
h*-vector.
"""

from zonoehrhart import (VectorConfiguration, ZonotopeSpec, count_lattice_points,
                         default_box_table, ehrhart_zonotope, hstar_from_ehrhart,
                         hstar_via_oracle, hstar_zonotope, is_alternatingly_increasing,
                         is_in_zonotope_cone, is_palindromic, is_real_rooted,
                         is_unimodal)


def main():
    config = VectorConfiguration([(1, 0), (0, 1), (1, 1)])
    z = ZonotopeSpec(config)

    print("generators:", list(config.vectors))
    print()

    print("Lattice-point counts of the first dilates, by exact feasibility:")
    counts = [count_lattice_points(z, n) for n in range(5)]
    for n, c in enumerate(counts):
        print(f"  |{n}Z cap Z^2| = {c}")
    print()

    ehr = ehrhart_zonotope(z)
    print("Counting polynomial from the independent-set formula:")
    print(f"  ehr(n) = {ehr.coeffs} (coefficients of 1, n, n^2)")
    print(f"  predicted counts: {[ehr(n) for n in range(5)]}")
    print()

    print("The same data as an h*-vector, three ways:")
    print("  binomial transform of ehr :", hstar_from_ehrhart(ehr, 2).h)
    print("  matroid decomposition     :", hstar_zonotope(z).h)
    print("  oracle lattice counts     :", hstar_via_oracle(z).h)
    print()

    table = default_box_table(config)
    print("Default box-valuation table (open-box lattice counts):")
    for s in config.independent_sets():
        print(f"  b{list(s)} = {table.value(s)}")
    print()

    h = hstar_zonotope(z)
    ok, peaks = is_unimodal(h)
    print(f"h* = {h.h}")
    print(f"  real-rooted             : {is_real_rooted(h.poly())}")
    print(f"  unimodal                : {ok}, peaks at {sorted(peaks)}")
    print(f"  palindromic             : {is_palindromic(h)} (so the hexagon is reflexive)")
    print(f"  alternatingly increasing: {is_alternatingly_increasing(h)}")
    print(f"  in the zonotope cone    : {is_in_zonotope_cone(h)}")


if __name__ == "__main__":
    main()
