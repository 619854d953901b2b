"""The benchmark's workloads: seeded job lists and their checks.

A job is one call a researcher's script would make into frameforms,
such as a Cartan test or a connection solve.  It runs from a spec that
the seed fixed beforehand, builds its own Session and manifolds, and
returns what the check needs.  Each job carries two checks:

- `check(out)`: a full check against computations made apart from the
  program (perfbench.checkers) or against properties the mathematics
  fixes.  It runs on the first output of each job in a run.
- `fingerprint(out)`: an exact summary.  Every later output of the same
  job must give the fingerprint of the checked one.

Program functions are looked up on the module objects at call time, so
a traced run sees the wrapped versions.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import checkers as ck
from checkers import require

WORKLOADS = ("cartan", "connection", "basis")

G2_PHI = "567-512-534-613-642-714-723"
G2_STAR_PHI = "1234-6712-6734-7513-7542-5614-5623"
SPIN7_PHI = "1234+1256+1278+3456+3478+5678+1357-1368-1458-1467-2358-2367-2457+2468"

# (base dimension n, closed forms whose d generate the ideal, n * (dim so(n) - dim H))
CARTAN_SYSTEMS = {
    "g2": (7, (G2_PHI, G2_STAR_PHI), 7 * (21 - 14)),
    "spin7": (8, (SPIN7_PHI,), 8 * (28 - 21)),
}
# Seeded non-identity flag orders per system, besides the identity flag;
# "g2-verbose" is `frameforms eds --dim 7 --verbose [--flag ...]` on the G2 ideal.
CARTAN_FLAGS = {"g2": 2, "spin7": 2, "g2-verbose": 2}

# dim of the stabilizer of a pure spinor: SU(2), SU(2), SU(3), SU(3), SU(4)
SPINOR_STABILIZER = {4: 3, 5: 3, 6: 8, 7: 8, 8: 15}
# torsion-free solves by base dimension; a repeated dimension gets another fixed algebra
TORSION_FREE_DIMS = (4, 4, 5, 5, 6, 7, 7)
# (n, size of the first layer, job shapes) of the 2-step-nilpotent algebras of
# the basis workload.  Their structure constants are fixed and the seed flips
# signs of the frame.  Two algebras have no grow-and-query job, which puts
# the 50th and 75th percentiles in the middle of groups of similar jobs.
BASIS_ALGEBRAS = (
    (6, 3, "build grow"), (6, 3, "build grow"), (6, 4, "build grow"), (6, 4, "build"),
    (7, 4, "build grow"), (7, 4, "build grow"), (8, 4, "build grow"), (8, 4, "build"),
)
BASIS_DEGREE = 3  # exact 3-forms d(Lambda^2)
BASIS_QUERIES = 6
IWASAWA_TABLE = {5: {(1, 3): 1, (2, 4): -1}, 6: {(1, 4): 1, (2, 3): 1}}


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], object]


def make_jobs(workload, ff, cli, rng, outdir):
    """The fixed job list of one round of a workload, drawn from rng."""
    if workload == "cartan":
        jobs = _cartan_jobs(ff, cli, rng, outdir)
    elif workload == "connection":
        jobs = _connection_jobs(ff, cli, rng)
    elif workload == "basis":
        jobs = _basis_jobs(ff, cli, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job.name = f"{i:02d}-{job.name}"
    return jobs


# --- shared helpers -------------------------------------------------------------

def nilpotent_table(rng, n, first):
    """Structure constants of a 2-step-nilpotent algebra.

    de^g = 0 for g <= first; every later de^g is a combination of three
    distinct e^i e^j with i < j <= first and coefficients in {±1, ±2}, so
    d(de^g) = 0 holds by construction.
    """
    pairs = list(combinations(range(1, first + 1), 2))
    table = {}
    for g in range(first + 1, n + 1):
        table[g] = {p: rng.choice((-2, -1, 1, 2)) for p in sorted(rng.sample(pairs, min(3, len(pairs))))}
    return table


def _copies(items):
    """0, 1, ... for repeats of each item: the fixed algebras are drawn per (shape, copy)."""
    seen = {}
    out = []
    for item in items:
        out.append(seen.get(item, 0))
        seen[item] = out[-1] + 1
    return out


def build_manifold(ff, session, n, table):
    M = ff.FrameManifold(session, n)
    for g in range(1, n + 1):
        w = M.zero()
        for (i, j), c in table.get(g, {}).items():
            w = w + M.e(i) * M.e(j) * c
        M.declare_d(g, w)
    return M


def _q_table(table):
    return {g: {p: ck.q(c) for p, c in row.items()} for g, row in table.items()}


def _mono(M, idx):
    w = M.scalar(1)
    for i in idx:
        w = w * M.e(i)
    return w


# --- cartan -----------------------------------------------------------------------

def _cartan_jobs(ff, cli, rng, outdir):
    ideal_file = outdir / "g2.ideal"
    ideal_file.write_text(f"d: {G2_PHI}\nd: {G2_STAR_PHI}\n", encoding="utf-8")
    memo = {}
    jobs = []
    for kind, extra in CARTAN_FLAGS.items():
        system = kind.split("-")[0]
        n = CARTAN_SYSTEMS[system][0]
        identity = list(range(1, n + 1))
        orders = [identity]
        while len(orders) < extra + 1:
            order = rng.sample(identity, n)
            if order not in orders:
                orders.append(order)
        for order in orders:
            label = "identity" if order == identity else "flag-" + "".join(map(str, order))
            if kind == "g2-verbose":
                jobs.append(_verbose_job(ff, cli, ideal_file, order, memo, f"{kind}/{label}"))
            else:
                jobs.append(_cartan_job(ff, system, order, memo, f"{system}/{label}"))
    return jobs


def _cartan_job(ff, system, order, memo, name):
    n, closed, expected = CARTAN_SYSTEMS[system]
    identity = order == list(range(1, n + 1))

    def run():
        bundle = ff.frame_bundle(ff.Session(), n)
        ideal = [bundle.d(bundle.parse(text)) for text in closed]
        return bundle, ideal, ff.cartan_test(bundle, ideal, order)

    def check(out):
        bundle, ideal, report = out
        polar, vn = _independent_ranks(ff, bundle, ideal, order, memo, system)
        ck.check_cartan(report.c, report.codim, expected_codim=expected,
                        identity_flag=identity, polar_ranks=polar, vn_rank=vn)
        require(report.involutive == (sum(report.c) == report.codim), "verdict disagrees with sum(c) == codim")

    def fingerprint(out):
        report = out[2]
        return report.c, report.codim, report.involutive

    return Job(name, system, run, check, fingerprint)


def _independent_ranks(ff, bundle, ideal, order, memo, system):
    """Echelon ranks of the program's polar equations per j and of its V_n equations."""
    key = (system, tuple(order))
    if key not in memo:
        n = bundle.n
        polar = []
        for j in range(n):
            rows = [ck.constant_form(eq) for form in ideal
                    for eq in ff.reduced_polar_equations(bundle, form, j, order)]
            polar.append(ck.echelon_rank(rows))
        if system not in memo:
            rules = {}
            for i in range(n + 1, n * (n + 1) + 1):
                x = bundle.manifold.zero()
                for j in range(1, n + 1):
                    x = x + bundle.theta(j) * bundle.p[(i, j)]
                rules[i] = x
            rows = [ck.affine_row(c) for form in ideal
                    for _, c in ff.substitute_form(form, rules).coefficients()]
            memo[system] = ck.echelon_rank(rows)
        memo[key] = polar
    return memo[key], memo[system]


def _verbose_job(ff, cli, ideal_file, order, memo, name):
    n, _, expected = CARTAN_SYSTEMS["g2"]
    argv = ["eds", "--dim", str(n), "--ideal-file", str(ideal_file), "--verbose"]
    if order != list(range(1, n + 1)):
        argv += ["--flag", ",".join(map(str, order))]

    def run():
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, text, err = result
        require(code == 0 and not err, f"eds exited {code}: {err.strip()}")
        bundle = ff.frame_bundle(ff.Session(), n)
        ideal = ff.load_ideal(bundle, ideal_file.read_text(encoding="utf-8"))
        polar, vn = _independent_ranks(ff, bundle, ideal, order, memo, "g2")
        ck.check_cartan(polar, vn, expected_codim=expected, identity_flag=order == list(range(1, n + 1)),
                        polar_ranks=polar, vn_rank=vn)
        ck.check_verbose_listing(text, polar, vn)
        verdict = "INVOLUTIVE" if sum(polar) == vn else "NOT INVOLUTIVE (at this flag)"
        require(text.splitlines()[-1] == verdict, f"verdict line is not {verdict!r}")

    return Job(name, "g2-verbose", run, check, lambda result: result)


# --- connection ----------------------------------------------------------------------

def _connection_jobs(ff, cli, rng):
    jobs = []
    for n in sorted(SPINOR_STABILIZER):
        jobs.append(_spinor_job(ff, n, rng.randrange(2 ** (n // 2))))
    for n, copy in zip(TORSION_FREE_DIMS, _copies(TORSION_FREE_DIMS)):
        table = nilpotent_table(random.Random(f"torsion-free-algebra-{n}-{copy}"), n, (n + 1) // 2 + 1)
        jobs.append(_torsion_free_job(ff, n, presentation(rng, table, n)))
    jobs.append(_nilpotent_torsion_job(ff, cli))
    jobs.append(_bilagrangian_job(ff, cli))
    jobs.append(_su2_job(cli))
    return jobs


def _free_names(conn):
    return tuple(s.name for s in conn.free_parameters())


def _spinor_job(ff, n, k):
    def run():
        M = ff.RiemannianManifold(ff.Session(), n)
        for i in range(1, n + 1):
            M.declare_nabla_spinor(M.e(i), M.u(k), 0)
        return M

    def check(M):
        free = len(M.connection.free_parameters())
        expected = n * SPINOR_STABILIZER[n]
        require(free == expected, f"parallel u{k} on n={n} leaves {free} free symbols, not {expected}")

    return Job(f"spinor/n{n}-u{k}", "spinor", run, check, lambda M: _free_names(M.connection))


def _torsion_free_job(ff, n, table):
    def run():
        M = build_manifold(ff, ff.Session(), n, table)
        return M, ff.Connection.torsion_free(M)

    def check(out):
        M, h = out
        free = len(h.free_parameters())
        expected = n ** 3 - n * n * (n - 1) // 2
        require(free == expected, f"torsion-free n={n} leaves {free} free symbols, not {expected}")
        # de^g = -sum_{i<j} (G_ijg - G_jig) e^i e^j for a torsion-free connection
        for g in range(1, n + 1):
            row = table.get(g, {})
            for i, j in combinations(range(1, n + 1), 2):
                diff = ck.psub(ck.from_poly(h.gamma(i, j, g)), ck.from_poly(h.gamma(j, i, g)))
                want = {(): ck.q(-row[(i, j)])} if (i, j) in row else {}
                require(diff == want, f"torsion of e{g} has a nonzero e{i}{j} part")
        require(all(not theta for theta in h.torsion()), "a torsion form of the solved connection is nonzero")

    def fingerprint(out):
        h = out[1]
        r = range(1, n + 1)
        return tuple(str(h.gamma(i, j, k)) for i in r for j in r for k in r)

    return Job(f"torsion-free/n{n}", "torsion-free", run, check, fingerprint)


# J e_j = sum_l J[l, j] e_l for J(Y) = Y hook (e12 + e34)
_J = {(2, 1): 1, (1, 2): -1, (4, 3): 1, (3, 4): -1}


def _nilpotent_torsion_job(ff, cli):
    def run():
        M, h, k, torsion = cli.almost_complex_torsion(ff.Session())
        return k, [f"Theta_{j + 1} = {ff.print_form(t)}" for j, t in enumerate(torsion)]

    def check(out):
        k, _ = out
        r = range(1, 5)
        gam = {(i, j, m): ck.from_poly(k.gamma(i, j, m)) for i in r for j in r for m in r}
        for i in r:
            for j in r:
                for m in r:
                    # <(nabla_i J) e_j, e^m> = sum_l J_lj G_ilm - sum_k G_ijk J_mk
                    acc = {}
                    for (a, b), v in _J.items():
                        if b == j:
                            acc = ck.padd(acc, ck.pscale(gam[(i, a, m)], ck.q(v)))
                        if a == m:
                            acc = ck.psub(acc, ck.pscale(gam[(i, j, b)], ck.q(v)))
                    require(not acc, f"nabla J is nonzero at e{i}, e{j}, e^{m}")

    return Job("example/nilpotent-torsion", "nilpotent-torsion", run, check, lambda out: out[1])


def _bilagrangian_job(ff, cli):
    def run():
        _, b13, b24 = cli.bilagrangian_brackets(ff.Session())
        return b13, b24, [f"[e1,e3] = {ff.print_form(b13)}", f"[e2,e4] = {ff.print_form(b24)}"]

    def check(out):
        b13, b24, _ = out
        require(all(len(m) == 1 for m in ck.from_form(b13)) and all(len(m) == 1 for m in ck.from_form(b24)),
                "a bracket is not a vector")
        require(not {(2,), (4,)} & set(ck.from_form(b13)), "[e1,e3] has an e2 or e4 part")
        require(not {(1,), (3,)} & set(ck.from_form(b24)), "[e2,e4] has an e1 or e3 part")

    return Job("example/bilagrangian", "bilagrangian", run, check, lambda out: out[2])


def _su2_job(cli):
    def run():
        return cli.run_example("su2-spinor")

    def check(text):
        lines = text.splitlines()
        require(len(lines) == 3 and all(line == "0" for line in lines), f"su2-spinor printed {lines}")

    return Job("example/su2-spinor", "su2-spinor", run, check, lambda text: text)


# --- basis -------------------------------------------------------------------------------

def _basis_jobs(ff, cli, rng):
    jobs = []
    shapes = [(n, first) for n, first, _ in BASIS_ALGEBRAS]
    for (n, first, kinds), copy in zip(BASIS_ALGEBRAS, _copies(shapes)):
        table = presentation(rng, nilpotent_table(random.Random(f"basis-algebra-{n}-{first}-{copy}"), n, first), n)
        subsets = list(combinations(range(1, n + 1), BASIS_DEGREE - 1))
        queries = [_draw_query(rng, subsets, symbolic=q % 2 == 1) for q in range(BASIS_QUERIES)]
        jobs.append(_build_query_job(ff, n, table, subsets, queries))
        if "grow" in kinds.split():
            coeffs = [_draw_coeff(rng, symbolic=t % 3 == 2) for t in range(len(subsets))]
            jobs.append(_grow_query_job(ff, n, table, subsets, coeffs))
    jobs.append(_iwasawa_job(ff, cli))
    return jobs


def presentation(rng, table, n):
    """The same algebra in a seeded frame f^k = ±e^k.

    Sign changes keep the isomorphism type and the sparsity pattern, so
    ranks and the cost of the basis computations do not depend on the
    seed, while the structure constants the program sees do.
    """
    sign = {k: rng.choice((1, -1)) for k in range(1, n + 1)}
    return {g: {p: sign[g] * sign[p[0]] * sign[p[1]] * c for p, c in row.items()} for g, row in table.items()}


def _draw_coeff(rng, symbolic):
    """An int, or (a, b, t) for the polynomial a*x_t + b in one of two symbols."""
    if symbolic:
        return (rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2), rng.randrange(2))
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _draw_query(rng, subsets, symbolic):
    picks = rng.sample(subsets, 4)
    return [(idx, _draw_coeff(rng, symbolic)) for idx in picks]


def _coeff_value(c, syms):
    if isinstance(c, int):
        return c
    a, b, t = c
    return syms[t] * a + b


def _coeff_poly(c, syms):
    if isinstance(c, int):
        return {(): ck.q(c)}
    a, b, t = c
    return {k: v for k, v in {((syms[t].index, 1),): ck.q(a), (): ck.q(b)}.items() if ck.qnonzero(v)}


def _query_form(terms, syms):
    """The independent copy of a queried (k-1)-form as {mono: polynomial}."""
    out = {}
    for idx, c in terms:
        ck.form_axpy(out, ck.ONE, {idx: _coeff_poly(c, syms)})
    return out


def _check_basis(ff, M, basis, table, inserted, answers, syms):
    """Rank, duals, and every answered query of a FormBasis of exact forms."""
    qt = _q_table(table)
    exact = [ck.exterior_d({idx: {(): ck.ONE}}, qt) for idx in inserted]
    rank = ck.echelon_rank([{m: p[()] for m, p in x.items()} for x in exact])
    require(len(basis) == rank, f"basis size {len(basis)} != echelon rank {rank}")
    elements = [ck.constant_form(x) for x in basis]
    for x in elements:
        require(any(x == {m: p[()] for m, p in e.items()} for e in exact), "a basis element is not an inserted form")
    ck.check_pairing([ck.constant_form(y) for y in basis.dual_basis()], elements)
    for terms, dw, comps, size in answers:
        target = ck.exterior_d(_query_form(terms, syms), qt)
        require(ck.from_form(dw) == target, "the program's d disagrees with the structure constants")
        require(not ck.exterior_d(target, qt) and not M.d(dw), "d(d w) is not zero")
        ck.check_reconstruction(elements[:size], [ck.from_poly(c) for c in comps], target)


def _answers_print(answers):
    return tuple(tuple(str(c) for c in comps) for _, _, comps, _ in answers)


def _build_query_job(ff, n, table, subsets, queries):
    def run():
        session = ff.Session()
        M = build_manifold(ff, session, n, table)
        syms = session.symbols("x0 x1")
        basis = ff.FormBasis(M)
        for idx in subsets:
            basis.insert(M.d(_mono(M, idx)))
        answers = []
        for terms in queries:
            w = M.zero()
            for idx, c in terms:
                w = w + _mono(M, idx) * _coeff_value(c, syms)
            dw = M.d(w)
            answers.append((terms, dw, basis.components(dw), len(basis)))
        return M, basis, answers, syms

    def check(out):
        M, basis, answers, syms = out
        _check_basis(ff, M, basis, table, subsets, answers, syms)

    def fingerprint(out):
        return len(out[1]), _answers_print(out[2])

    return Job(f"basis/build-query-n{n}", "build-query", run, check, fingerprint)


def _grow_query_job(ff, n, table, order, coeffs):
    def run():
        session = ff.Session()
        M = build_manifold(ff, session, n, table)
        syms = session.symbols("x0 x1")
        basis = ff.FormBasis(M)
        w = M.zero()
        terms = []
        answers = []
        for idx, c in zip(order, coeffs):
            w = w + _mono(M, idx) * _coeff_value(c, syms)
            terms.append((idx, c))
            if basis.insert(M.d(_mono(M, idx))):
                dw = M.d(w)
                answers.append((list(terms), dw, basis.components(dw), len(basis)))
        return M, basis, answers, syms

    def check(out):
        M, basis, answers, syms = out
        require(len(answers) == len(basis), "a query was skipped after an accepted insert")
        _check_basis(ff, M, basis, table, order, answers, syms)

    def fingerprint(out):
        return len(out[1]), _answers_print(out[2])

    return Job(f"basis/grow-query-n{n}", "grow-query", run, check, fingerprint)


def _iwasawa_job(ff, cli):
    query = [((4, 5), 1)]

    def run():
        M, basis = cli.iwasawa_exact_basis(ff.Session())
        dw = M.d(M.e(4) * M.e(5))
        lines = [ff.print_form(x) for x in basis]
        return M, basis, [(query, dw, basis.components(dw), len(basis))], lines

    def check(out):
        M, basis, answers, _ = out
        _check_basis(ff, M, basis, IWASAWA_TABLE, list(combinations(range(1, 7), 2)), answers, [])

    def fingerprint(out):
        return out[3], _answers_print(out[2])

    return Job("example/iwasawa", "iwasawa", run, check, fingerprint)
