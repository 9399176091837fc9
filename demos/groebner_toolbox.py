"""The ideal calculus underneath: bases, colon, saturation, resolutions.

A quick tour of the engine the certificates run on, ending with the
ideal of top-degree forms (the top forms of one grevlex Groebner basis)
and a minimal free resolution.

Run from the repository root:

    python demos/groebner_toolbox.py
"""

from smallsub import (GF, Ideal, SubmoduleOfFree, free_resolution,
                      leading_form_ideal, parse_generators, parse_polynomial)

F5 = GF(5)


def show(label, ideal):
    basis = ", ".join(str(g) for g in ideal.groebner_basis())
    print(f"{label}: {{{basis}}}")


def main() -> None:
    print("=== reduced Groebner bases ===")
    gens = parse_generators("x1^2+x2^2; x1*x2", F5)
    show("GB of (x1^2+x2^2, x1*x2)", Ideal(gens))

    print()
    print("=== dimension and height ===")
    I = Ideal(parse_generators("x1*x2; x1*x3; x2*x3", F5))
    print(f"(x1*x2, x1*x3, x2*x3): Krull dimension of the quotient = "
          f"{I.dimension()}, height = {I.height()}")
    unit = Ideal(parse_generators("x1; x1+1", F5))
    print(f"a unit ideal reports height {unit.height()}")

    print()
    print("=== colon, intersection, saturation ===")
    I = Ideal(parse_generators("x1^2; x1*x2", F5))
    show("(x1^2, x1*x2) : (x1)", I.colon(Ideal(parse_generators("x1", F5, 2))))
    A = Ideal(parse_generators("x1; x2", F5, 3))
    B = Ideal(parse_generators("x2; x3", F5, 3))
    show("(x1,x2) meet (x2,x3)", A.intersection(B))
    J = Ideal(parse_generators("x1*x2; x1*x3", F5))
    show("(x1*x2, x1*x3) : x1^inf", J.saturation(parse_polynomial("x1", F5, 3)))

    print()
    print("=== ideal of top-degree forms ===")
    gens = parse_generators("x1; x1*x2+x2^2", F5)
    show("top forms of (x1, x1*x2+x2^2)", leading_form_ideal(gens))

    print()
    print("=== free resolutions and projective dimension ===")
    sub = SubmoduleOfFree.from_ideal_generators(
        parse_generators("x1; x2; x3", F5))
    res = free_resolution(sub)
    print(f"Koszul complex on x1,x2,x3: length {res.length}, ranks {res.ranks}")
    sub = SubmoduleOfFree.from_ideal_generators(
        parse_generators("x1^2; x1*x2", F5))
    res = free_resolution(sub)
    print(f"(x1^2, x1*x2) in K[x1,x2]: length {res.length}, ranks {res.ranks}")
    print("first syzygy matrix:",
          [[str(e) for e in row] for row in res.matrices[1]])


if __name__ == "__main__":
    main()
