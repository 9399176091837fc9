"""Regular sequences, singular loci, and the distinct-degree minors bound.

Shows the certificate chain: a regular sequence is recognized by the
height of its ideal; the singular locus of the complete intersection is
measured through Jacobian minors; and Serre's R_eta is a codimension
verdict on that locus.  The last section samples random matrices with
rows of distinct degrees and confirms the height bound on their maximal
minors.

Run from the repository root:

    python demos/certificates.py
"""

import random

from smallsub import (GF, Form, Polynomial, check_reta, is_regular_sequence,
                      minors_height_check, minors_ideal, parse_polynomial)

F5 = GF(5)


def forms(*texts, nvars):
    return [Form(parse_polynomial(t, F5, nvars)) for t in texts]


def random_form(rng, nvars, degree):
    def monos(n, d):
        if n == 0:
            return [()] if d == 0 else []
        return [(e,) + rest for e in range(d + 1) for rest in monos(n - 1, d - e)]
    while True:
        f = Polynomial(nvars, F5, {m: rng.randint(0, 4) for m in monos(nvars, degree)})
        if not f.is_zero():
            return f


def main() -> None:
    print("=== regular sequences by the height criterion ===")
    for texts, nvars in ((("x1", "x2", "x3"), 4),
                         (("x1", "x1*x2"), 2),
                         (("x1*x2", "x3*x4"), 4)):
        verdict = is_regular_sequence(forms(*texts, nvars=nvars))
        print(f"{texts} in {nvars} variables: regular = {verdict}")

    print()
    print("=== singular locus of a quadric cone ===")
    for n in (3, 4, 5):
        cone = forms("+".join(f"x{i}^2" for i in range(1, n + 1)), nvars=n)
        codim = check_reta(cone, 0).codim_singular
        print(f"sum of {n} squares: singular locus codimension {codim} "
              f"in the hypersurface")

    print()
    print("=== R_eta verdicts ===")
    cert = check_reta(forms("x1^2+x2^2+x3^2", nvars=3), eta=1)
    print(f"x1^2+x2^2+x3^2, eta=1: {'pass' if cert.verdict else 'fail'} "
          f"(codim {cert.codim_singular}, heights {cert.heights})")
    cert = check_reta(forms("x1*x2", nvars=2), eta=1)
    print(f"x1*x2, eta=1: {'pass' if cert.verdict else 'fail'} "
          f"(codim {cert.codim_singular}; the union of two lines is R_0 only)")

    print()
    print("=== maximal minors of distinct-degree rows ===")
    row1 = [parse_polynomial(f"x{i}", F5, 3) for i in (1, 2, 3)]
    row2 = [parse_polynomial(f"x{i}^2", F5, 3) for i in (1, 2, 3)]
    minors = minors_ideal([row1, row2], 2)
    print("rows (x1,x2,x3) and (x1^2,x2^2,x3^2):")
    print("  2x2 minors generate an ideal of height", minors.height())
    print("  bound check:", minors_height_check([row1, row2]))

    rng = random.Random(7)
    trials = 20
    print(f"random sample, {trials} matrices over F5:")
    for _ in range(trials):
        n = rng.choice([3, 4])
        rows = [[random_form(rng, n, 1) for _ in range(n)],
                [random_form(rng, n, 2) for _ in range(n)]]
        assert minors_height_check(rows)
    print(f"  height bound held on all {trials} samples")


if __name__ == "__main__":
    main()
