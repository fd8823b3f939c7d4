"""Acceptance-grade verification suites.

Each suite is an exhaustive sweep at desk scale; every comparison is exact
integer equality. A suite returns a report with the number of checks run and
a list of human-readable failure descriptions (empty on success). The CLI
exposes seven named suites; the remaining sweeps run from the test suite.
"""

from __future__ import annotations

import itertools
import random

from .errors import InternalError
from .fusion import (
    FUSION_BACKENDS,
    fusion_coefficient,
    in_alcove,
    theta_pairing,
    walton_dimension,
    prv_dimension,
    fusion_table,
)
from .linalg import RationalMatrix
from .multiplicity import (
    dominant_weights_up_to_dim,
    recursion_diagram,
    weight_diagram,
    weyl_dimension,
)
from .repspace import cached_module, operator_power_block
from .rootdata import (
    build_root_system,
    dual_weight,
    is_dominant,
    parse_cartan_type,
    root_pairing,
    wadd,
    wscale,
    wsub,
)
from .tensor import stability_threshold, tensor_multiplicity, weight_string


class SuiteReport:
    def __init__(self, name: str):
        self.name, self.checks, self.failures = name, 0, []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(describe() if callable(describe) else str(describe))

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {verdict} ({self.checks} checks, {len(self.failures)} failures)"


def verify_sl2_closed_form() -> SuiteReport:
    """Walton dimensions on sl2 at levels 1..8 against the level-truncation predicate."""
    report = SuiteReport("sl2-closed-form")
    rs = build_root_system("A1")
    for k in range(1, 9):
        for n1 in range(k + 1):
            for n2 in range(k + 1):
                for i in range(n1 + 1):
                    out = n1 + n2 - 2 * i
                    if not 0 <= out <= k:
                        continue
                    got = walton_dimension(rs, k, (n1,), (n1 - 2 * i,), (n2,))
                    expect = 1 if (i <= n2 and n1 + n2 - 2 * i <= k - i) else 0
                    report.check(got == expect,
                                 lambda: f"k={k} n1={n1} n2={n2} i={i}: "
                                         f"walton={got} closed-form={expect}")
    return report


def _select(sweep, restrict_type: str | None = None, restrict_level: int | None = None):
    """(root system, case) for each case of ``sweep`` that --type and --level keep.

    ``sweep`` pairs a type name with its cases: levels in the table suites, the only ones
    that take --level. --type takes any spelling ``parse_cartan_type`` reads.
    """
    want = None if restrict_type is None else parse_cartan_type(restrict_type)
    for name, cases in sweep:
        rs = build_root_system(name)
        if want is None or rs.cartan_type == want:
            for case in cases:
                if restrict_level is None or case == restrict_level:
                    yield rs, case


_PRV_WEIGHTS = (
    ("A1", tuple((m,) for m in range(12))),  # dim m+1 <= 12
    ("A2", tuple(itertools.product(range(3), repeat=2))),
)


def _prv_triples(restrict_type: str | None = None):
    """(rs, lam, mu, beta) for lam, mu among one type's PRV weights and beta a weight of
    V^lam with beta + mu dominant."""
    pairs = ((name, itertools.product(lams, repeat=2)) for name, lams in _PRV_WEIGHTS)
    for rs, (lam, mu) in _select(pairs, restrict_type):
        for beta in sorted(weight_diagram(rs, lam).table):
            if is_dominant(wadd(beta, mu)):
                yield rs, lam, mu, beta


def verify_prv(restrict_type: str | None = None) -> SuiteReport:
    """PRV subspace dimension == Racah-Speiser multiplicity on the sweep."""
    report = SuiteReport("prv")
    for rs, lam, mu, beta in _prv_triples(restrict_type):
        got = prv_dimension(rs, lam, beta, mu)
        expect = tensor_multiplicity(rs, lam, mu, wadd(beta, mu))
        report.check(got == expect,
                     lambda: f"{rs} lam={lam} beta={beta} mu={mu}: "
                             f"prv={got} racah-speiser={expect}")
    return report


def verify_threshold() -> SuiteReport:
    """Fusion saturates to the tensor multiplicity at k >= <mu,theta> + r.

    Sharpness is asserted on the sl2 family: one level below the threshold the
    fusion coefficient must drop strictly, whenever that level is alcove-valid.
    """
    report = SuiteReport("threshold")
    for rs, lam, mu, beta in _prv_triples():
        top = wadd(beta, mu)
        r_down = weight_string(weight_diagram(rs, lam), beta, rs.theta).down
        expect = tensor_multiplicity(rs, lam, mu, top)
        k0 = max(theta_pairing(rs, mu) + r_down, theta_pairing(rs, lam),
                 theta_pairing(rs, top), 1)
        for k in (k0, k0 + 1):
            got = fusion_coefficient(rs, k, lam, mu, top)
            report.check(got == expect,
                         lambda: f"{rs} k={k} lam={lam} beta={beta} mu={mu}: "
                                 f"fusion={got} tensor={expect}")
        below = theta_pairing(rs, mu) + r_down - 1
        if rs.rank == 1 and expect and below >= 1 and all(
            in_alcove(rs, below, w) for w in (lam, mu, top)
        ):
            got = fusion_coefficient(rs, below, lam, mu, top)
            report.check(got < expect,
                         lambda: f"{rs} k={below} lam={lam} beta={beta} mu={mu}: "
                                 f"threshold not sharp ({got})")
    return report


_THREE_WAY_RANGES = (("A1", (1, 2, 3, 4)), ("A2", (1, 2)))


def verify_three_way(restrict_type: str | None = None,
                     restrict_level: int | None = None) -> SuiteReport:
    """walton == kac-walton on every triple; walton == fz under the FZ cap."""
    report = SuiteReport("three-way")
    for rs, k in _select(_THREE_WAY_RANGES, restrict_type, restrict_level):
        tables = {b: fusion_table(rs, k, b) for b in FUSION_BACKENDS}
        walton = tables.pop("walton")
        for lam, mu, nu in itertools.product(walton.alcove, repeat=3):
            w = walton.coefficient(lam, mu, nu)
            for b, table in tables.items():
                if (lam, mu) in table.skipped:
                    continue
                got = table.coefficient(lam, mu, nu)
                report.check(w == got, lambda: f"{rs} k={k} {lam}x{mu}->{nu}: walton={w} {b}={got}")
    return report


_AXIOM_RANGES = (("A1", (1, 2, 3, 4, 5, 6)), ("A2", (1, 2, 3)))


def verify_axioms(restrict_type: str | None = None,
                  restrict_level: int | None = None) -> SuiteReport:
    """Fusion-algebra axioms on whole Kac-Walton tables, which use no symmetry:
    identity, commutativity, conjugation with C^2 = I, full S3 symmetry,
    associativity; and the Walton table equals the Kac-Walton table cell by cell."""
    report = SuiteReport("axioms")
    for rs, k in _select(_AXIOM_RANGES, restrict_type, restrict_level):
        table, walton = fusion_table(rs, k, "kacwalton"), fusion_table(rs, k)
        alcove = table.alcove
        zero = (0,) * rs.rank

        def coeff(a, b, c):
            return table.coeffs.get((a, b, c), 0)

        for mu in alcove:
            for nu in alcove:
                report.check(coeff(zero, mu, nu) == (1 if mu == nu else 0),
                             lambda: f"{rs} k={k}: identity row fails at {mu},{nu}")
        for lam, mu in itertools.product(alcove, repeat=2):
            for nu in alcove:
                report.check(coeff(lam, mu, nu) == coeff(mu, lam, nu),
                             lambda: f"{rs} k={k}: commutativity fails at {lam},{mu},{nu}")
                w = walton.coefficient(lam, mu, nu)
                report.check(w == coeff(lam, mu, nu),
                             lambda: f"{rs} k={k} {lam}x{mu}->{nu}: walton={w} "
                                     f"kacwalton={coeff(lam, mu, nu)}")
            report.check(coeff(lam, mu, zero) == (1 if mu == dual_weight(rs, lam) else 0),
                         lambda: f"{rs} k={k}: conjugation fails at {lam},{mu}")
        # C^2 = I for the nu = 0 slice
        for lam in alcove:
            row = [mu for mu in alcove if coeff(lam, mu, zero)]
            report.check(len(row) == 1 and coeff(row[0], lam, zero) == 1,
                         lambda: f"{rs} k={k}: C^2 != I at {lam}")
        # full S3 symmetry of N_{lam,mu,nu} = N^{nu*}_{lam,mu}
        for lam, mu, nu in itertools.combinations_with_replacement(alcove, 3):
            vals = {
                coeff(a, b, dual_weight(rs, c))
                for a, b, c in itertools.permutations((lam, mu, nu))
            }
            report.check(len(vals) == 1,
                         lambda: f"{rs} k={k}: S3 symmetry fails at {lam},{mu},{nu}: {vals}")
        # associativity
        for lam, mu, nu in itertools.product(alcove, repeat=3):
            for tau in alcove:
                lhs = sum(coeff(lam, mu, s) * coeff(s, nu, tau) for s in alcove)
                rhs = sum(coeff(lam, s, tau) * coeff(mu, nu, s) for s in alcove)
                report.check(lhs == rhs,
                             lambda: f"{rs} k={k}: associativity fails at {lam},{mu},{nu},{tau}: "
                                     f"{lhs}!={rhs}")
    return report


def verify_lemmas() -> SuiteReport:
    """Kernel/image decomposition on sl2 strings and on A2 modules, kernel-dimension
    duality on A2 modules, and the abstract projection split on random exact spaces."""
    report = SuiteReport("lemmas")
    _lemma_orthogonal_split(report)
    _lemma_kernel_duality(report)
    _lemma_projection(report)
    return report


def _a2_directions(rs):
    """(e, f, root) along alpha_1, alpha_2 and theta; each f is the form-adjoint of its e."""
    return [("e0", "f0", rs.simple_roots[0]), ("e1", "f1", rs.simple_roots[1]),
            ("etheta", "ftheta", rs.theta)]


def _lemma_orthogonal_split(report: SuiteReport) -> None:
    """V = ker(f^p) + im(e^p) orthogonally, and e^p of maximal rank, in each weight space for
    every p up to past the longest string: on the A1 modules of dim <= 11 and the A2 modules of
    dim <= 64 along each of ``_a2_directions`` (weight spaces of dim > 1 let the two meet)."""
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    cases = [(a1, (m,), ("e0", "f0", a1.simple_roots[0])) for m in range(11)]
    cases += [(a2, lam, direction) for lam in dominant_weights_up_to_dim(a2, 64)
              for direction in _a2_directions(a2)]
    for rs, lam, (e_op, f_op, alpha) in cases:
        module = cached_module(rs, lam)
        longest = max(int(root_pairing(rs, beta, alpha)) for beta in module.diagram.table)
        for p in range(1, longest + 3):
            ker_total = im_total = 0
            for beta in module.basis_index:
                kb = operator_power_block(module, f_op, p, beta).kernel()
                ker_total += kb.cols
                back = wsub(beta, wscale(p, alpha))
                if back in module.basis_index:
                    image = operator_power_block(module, e_op, p, back)
                    im_total += (rank := image.rank())  # maximal, as _walton_space assumes
                    report.check(rank == min(module.dim_at(back), module.dim_at(beta)),
                                 lambda: f"{rs} V^{lam}: {e_op}^{p} out of {back} below max rank")
                    if kb.cols and not image.is_zero():
                        overlap = kb.transpose() @ module.gram[beta] @ image
                        report.check(overlap.is_zero(),
                                     lambda: f"{rs} V^{lam} alpha={alpha} p={p}: "
                                             f"ker(f^p) not orthogonal to im(e^p) at {beta}")
            report.check(ker_total + im_total == module.dimension,
                         lambda: f"{rs} V^{lam} alpha={alpha} p={p}: "
                                 f"dim ker {ker_total} + dim im {im_total} != {module.dimension}")


def _lemma_kernel_duality(report: SuiteReport) -> None:
    rs = build_root_system("A2")
    directions = _a2_directions(rs)
    for lam in dominant_weights_up_to_dim(rs, 200):
        module = cached_module(rs, lam)
        for beta in module.basis_index:
            for e_op, f_op, alpha in directions:
                pair = root_pairing(rs, beta, alpha)
                if pair.denominator != 1:
                    raise InternalError(f"<{beta}, {alpha}^vee> = {pair} is not an integer")
                pair = int(pair)
                diagram = module.diagram
                up = weight_string(diagram, beta, alpha).up
                for p in range(max(0, -pair), up + 2):
                    lhs = operator_power_block(module, e_op, p, beta).kernel().cols
                    rhs = operator_power_block(module, f_op, p + pair, beta).kernel().cols
                    report.check(lhs == rhs,
                                 lambda: f"A2 V^{lam} beta={beta} alpha={alpha} p={p}: "
                                         f"ker(e^p)={lhs} ker(f^(p+pair))={rhs}")


def _lemma_projection(report: SuiteReport) -> None:
    rng = random.Random(20240511)
    for trial in range(50):
        n = rng.randint(2, 8)
        gram = _random_posdef(rng, n)
        u1 = _random_subspace(rng, n)
        u2 = (u1.transpose() @ gram).kernel()  # orthogonal complement
        w = _random_subspace(rng, n)
        # P_W(U1) inside W, coordinates in W's basis
        wg = w.transpose() @ gram @ w
        proj_coords = wg.inverse() @ (w.transpose() @ gram @ u1)
        part1 = _column_space(proj_coords)
        cap = _intersection_in_first(w, u2)
        dim_w = w.cols
        dim1 = part1.cols
        dim2 = cap.cols
        report.check(dim1 + dim2 == dim_w,
                     lambda: f"projection split trial {trial}: {dim1} + {dim2} != {dim_w}")
        if dim1 and dim2:
            overlap = part1.transpose() @ wg @ cap
            report.check(overlap.is_zero(),
                         lambda: f"projection split trial {trial}: summands not orthogonal")
        joint = RationalMatrix.block([dim_w], [dim1, dim2], {(0, 0): part1, (0, 1): cap})
        report.check(joint.rank() == dim_w,
                     lambda: f"projection split trial {trial}: summands do not span W")


def _random_posdef(rng: random.Random, n: int) -> RationalMatrix:
    while True:
        b = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        if b.rank() == n:
            return b.transpose() @ b


def _random_subspace(rng: random.Random, n: int) -> RationalMatrix:
    d = rng.randint(1, n - 1)
    while True:
        cand = RationalMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])
        if cand.rank() == d:
            return cand


def _column_space(mat: RationalMatrix) -> RationalMatrix:
    """The first-wins independent columns of mat."""
    pivots, _ = mat.rref()
    return mat.select(range(mat.rows), pivots)


def _intersection_in_first(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Basis (in a's coordinates) of colspace(a) cap colspace(b)."""
    null = RationalMatrix.block([a.rows], [a.cols, b.cols], {(0, 0): a, (0, 1): -b}).kernel()
    return _column_space(null.select(range(a.cols), range(null.cols)))


def verify_stability() -> SuiteReport:
    """Outer multiplicities freeze once <mu, alpha_j> reaches the string bound."""
    report = SuiteReport("stability")
    for name in ("A1", "A2"):
        rs = build_root_system(name)
        lams = {rs.theta, (2,) + (0,) * (rs.rank - 1)}
        for lam in sorted(lams):
            diagram = weight_diagram(rs, lam)
            for beta in sorted(diagram.table):
                for j in range(rs.rank):
                    q = stability_threshold(diagram, beta, j)
                    box = itertools.product(range(q + 3), repeat=rs.rank)
                    for mu in box:
                        if mu[j] < q or not is_dominant(wadd(beta, mu)):
                            continue
                        base = tensor_multiplicity(rs, lam, mu, wadd(beta, mu))
                        for m in (1, 2):
                            shift = tuple(m if t == j else 0 for t in range(rs.rank))
                            bigger = wadd(mu, shift)
                            moved = tensor_multiplicity(rs, lam, bigger, wadd(beta, bigger))
                            report.check(moved == base,
                                         lambda: f"{name} lam={lam} beta={beta} j={j} "
                                                 f"mu={mu} m={m}: {moved} != {base}")
    return report


_MULT_TYPES = ("A1", "A2", "B2", "G2")


def verify_multiplicity_oracle(restrict_type: str | None = None,
                               dim_cap: int = 500) -> SuiteReport:
    """W-recursion diagram == production (Freudenthal) diagram; total == Weyl dimension."""
    report = SuiteReport("multiplicity")
    sweep = ((name, (dim_cap,)) for name in _MULT_TYPES)
    for rs, cap in _select(sweep, restrict_type):
        for lam in dominant_weights_up_to_dim(rs, cap):
            recursion = recursion_diagram(rs, lam)
            production = weight_diagram(rs, lam)
            report.check(dict(recursion.table) == dict(production.table),
                         lambda: f"{rs} lam={lam}: recursion != Freudenthal")
            report.check(recursion.dimension == weyl_dimension(rs, lam),
                         lambda: f"{rs} lam={lam}: total != Weyl dimension")
    return report


# suite name -> runner; the filters a suite takes are its restrict_* parameters
CLI_SUITES = {
    "sl2-closed-form": verify_sl2_closed_form,
    "prv": verify_prv,
    "three-way": verify_three_way,
    "axioms": verify_axioms,
    "lemmas": verify_lemmas,
    "stability": verify_stability,
    "multiplicity": verify_multiplicity_oracle,
}
