"""The four workloads: their inputs, their units of work and their checks.

Each workload is a ``setup(seed, out_dir, spawner)`` function that imports
what it needs, builds its inputs from the seed and returns its units.  A
fresh interpreter that only runs ``setup`` is what ``setup_s`` times.

A unit is one timed call (or one batch of same-kind calls) into qnetcap.
Its check turns the result into one verdict per operation; every expected
value comes from ``refcheck`` or from a property the method must have,
never from a stored copy of an earlier output.  Expected values are
computed on first use, outside both the timed region and ``setup``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refcheck

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Unit:
    name: str
    ops: int
    run: Callable[[], object]
    # result -> one bool per operation
    check: Callable[[object], list]
    # operations that fail every time because of a named program fault
    known_fault: bool = False
    # traced variant for units whose work happens in a child process
    run_traced: Callable[[object], object] | None = None


def close(a, b, tol=1e-9) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def all_close(xs, ys, tol=1e-9) -> bool:
    return len(xs) == len(ys) and all(close(x, y, tol) for x, y in zip(xs, ys))


def bounds(region):
    return [b for _, b in region.inequalities]


def coeffs(region):
    return [tuple(float(v) for v in c) for c, _ in region.inequalities]


def late(module, name, *args, **kwargs):
    """Call ``module.name`` looked up at call time, so that the layer
    wrappers installed for a traced pass see the call."""
    return lambda: getattr(module, name)(*args, **kwargs)


def batch(module, name, items, **kwargs):
    return lambda: [getattr(module, name)(*item, **kwargs) for item in items]


# ---------------------------------------------------------------------------
# grid-sweeps: many tiny two-register cq states

TRINE = [np.array([math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)])
         for k in range(3)]
BB84_FOUR = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)]
_W3 = np.exp(2j * math.pi / 3)
QUTRIT_MUB = [np.eye(3)[k] for k in range(3)] + [
    np.array([1.0, _W3**k, _W3 ** (2 * k)]) / math.sqrt(3) for k in range(3)
]
VSI_INSIDE = (1.0, 1.5, math.pi / 2, 2.1)
VSI_OUTSIDE = (0.5, 2.5)
VSI_GRID = 11
MAC_GRID = 11


def grid_sweeps(seed, out_dir, spawner):
    """Fixed channels; the seed is not used.  A seeded global unitary on the
    state sets leaves every Holevo value unchanged, but it changed the
    Nelder-Mead evaluations on the degenerate qutrit optimum from 334 to
    757 and the unit's time by up to 40% between seeds, so a seeded variant
    would not measure the same work."""
    from qnetcap import network
    from qnetcap.channels import CqChannel, builtin, theta_swap
    from qnetcap.qstate import pure_state

    def state_set(vectors):
        outputs = {(str(k),): pure_state(v) for k, v in enumerate(vectors)}
        return CqChannel((tuple(str(k) for k in range(len(vectors))),), outputs)

    inside = [theta_swap(t) for t in VSI_INSIDE]
    outside = [theta_swap(t) for t in VSI_OUTSIDE]
    qmac, p2p = builtin("bb84_qmac"), builtin("bb84_p2p")
    capacity_cases = [
        ("bb84_p2p", p2p, 21, refcheck.h2(math.cos(math.pi / 8) ** 2)),
        ("trine", state_set(TRINE), 21, 1.0),
        ("bb84_four", state_set(BB84_FOUR), 21, 1.0),
        ("qutrit_mub", state_set(QUTRIT_MUB), 11, math.log2(3)),
    ]

    h = refcheck.h2(math.cos(math.pi / 8) ** 2)

    def in_pentagon(points):
        ok = len(points) == 61
        return [ok and all(
            -1e-12 <= r1 <= h + 1e-9 and -1e-12 <= r2 <= h + 1e-9
            and r1 + r2 <= 1.0 + 1e-9 for _, r1, r2 in points
        )]

    units = [
        Unit(f"vsi_check[theta={t:.4f}]", 1, late(network, "vsi_check", ch, grid=VSI_GRID),
             lambda r: [r is True])
        for t, ch in zip(VSI_INSIDE, inside)
    ]
    units.append(Unit(
        "vsi_check[outside]", len(outside),
        batch(network, "vsi_check", [(ch,) for ch in outside], grid=VSI_GRID),
        lambda rs: [r is False for r in rs],
    ))
    units.append(Unit("mac_region_union[bb84_qmac]", 1,
                      late(network, "mac_region_union", qmac, grid=MAC_GRID),
                      in_pentagon))
    for name, ch, grid, expected in capacity_cases:
        units.append(Unit(
            f"hsw_capacity[{name}]", 1,
            late(network, "hsw_capacity", ch, grid_resolution=grid),
            lambda r, e=expected: [close(r[0], e, 1e-6)],
        ))
    return units


# ---------------------------------------------------------------------------
# split-rate: few distributions over wide five-register tables

Q_SIZE = 3
PER_CHANNEL = 2


def _dirichlet(rng, symbols):
    from qnetcap.entropic import ProbDist

    return ProbDist(symbols, rng.dirichlet(np.ones(len(symbols))))


def split_rate(seed, out_dir, spawner):
    from qnetcap import network
    from qnetcap.channels import bb84_bc, bb84_relay, builtin, theta_swap
    from qnetcap.network import (
        CodeDistribution,
        random_cmg_distribution,
        random_hk_distribution,
    )

    rng = np.random.default_rng(seed)
    ics = (builtin("bb84_qmac"), theta_swap(1.2))
    bc, relay = bb84_bc(), bb84_relay()
    qs = tuple(str(i) for i in range(Q_SIZE))

    def sub_seed():
        return int(rng.integers(2**32))

    cmg = [(ch, random_cmg_distribution(ch, sub_seed(), q_size=Q_SIZE))
           for ch in ics for _ in range(PER_CHANNEL)]
    hk = [(ch, random_hk_distribution(ch, sub_seed(), q_size=Q_SIZE))
          for ch in ics for _ in range(PER_CHANNEL)]
    cts = []
    for ch in ics:
        a1, a2 = ch.input_alphabets
        cts.append((ch, CodeDistribution.coded_time_share(
            _dirichlet(rng, qs), {q: _dirichlet(rng, a1) for q in qs},
            {q: _dirichlet(rng, a2) for q in qs})))
    x = bc.input_alphabets[0]
    sup = [(bc, CodeDistribution.superposition(
        _dirichlet(rng, qs), {w: _dirichlet(rng, x) for w in qs})) for _ in range(2)]
    pairs = tuple(itertools.product(qs, qs))
    marton = [(bc, CodeDistribution.marton(
        _dirichlet(rng, pairs), {pr: x[int(rng.integers(len(x)))] for pr in pairs}, x))
        for _ in range(2)]
    triples = tuple(itertools.product(qs, *relay.input_alphabets))
    rel = [(relay, CodeDistribution.relay_pdf(_dirichlet(rng, triples)))
           for _ in range(2)]

    ref_cmg = functools.cache(lambda i: refcheck.cmg_infos(*cmg[i]))

    def check_infos(results):
        out = []
        for i, got in enumerate(results):
            ref = ref_cmg(i)
            slacks = refcheck.ordering_slacks(got, "1") + refcheck.ordering_slacks(got, "2")
            out.append(all(close(got[k], ref[k]) for k in ref)
                       and min(slacks) >= -1e-8)
        return out

    def direct_rows(i):
        return list(zip(CMG_COEFFS, refcheck.cmg_bounds(ref_cmg(i))))

    def check_cmg_region(results):
        return [coeffs(r) == CMG_COEFFS and all_close(bounds(r), refcheck.cmg_bounds(ref_cmg(i)))
                for i, r in enumerate(results)]

    def check_projection(results):
        return [refcheck.same_vertices(r.inequalities, direct_rows(i))
                for i, r in enumerate(results)]

    ref_hk = functools.cache(lambda i: refcheck.hk_some_bounds(*hk[i]))

    def check_hk(results):
        return [len(r.inequalities) == 9
                and all(close(bounds(r)[row], v) for row, v in ref_hk(i).items())
                for i, r in enumerate(results)]

    def ic_expected(i, joint_only):
        ch, dist = cts[i]
        t = refcheck.cts_table(ch, dist)
        b1, b2 = refcheck.receivers(ch)
        r1 = t.cmi({"X1"}, {b1}, {"X2", "Q"})
        r2 = t.cmi({"X2"}, {b2}, {"X1", "Q"})
        if joint_only:
            return [r1, r2, t.cmi({"X1", "X2"}, {b1, b2}, {"Q"})]
        return [r1, r2, min(t.cmi({"X1", "X2"}, {b1}, {"Q"}),
                            t.cmi({"X1", "X2"}, {b2}, {"Q"}))]

    ref_si = functools.cache(lambda i: ic_expected(i, False))
    ref_sato = functools.cache(lambda i: ic_expected(i, True))

    @functools.cache
    def ref_sup(i):
        t = refcheck.superposition_table(*sup[i])
        return [t.cmi({"X"}, {"B1"}, {"W"}), t.cmi({"W"}, {"B2"}), t.cmi({"X"}, {"B1"})]

    @functools.cache
    def ref_marton(i):
        t = refcheck.marton_table(*marton[i])
        i1, i2 = t.cmi({"U1"}, {"B1"}), t.cmi({"U2"}, {"B2"})
        return [i1, i2, max(0.0, i1 + i2 - t.cmi({"U1"}, {"U2"}))]

    @functools.cache
    def ref_relay(i):
        t = refcheck.relay_table(*rel[i])
        direct = t.cmi({"X", "X1"}, {"B"})
        return min(direct, t.cmi({"U"}, {"B1"}, {"X1"}) + t.cmi({"X"}, {"B"}, {"X1", "U"}))

    def region_check(ref):
        return lambda results: [all_close(bounds(r), ref(i)) for i, r in enumerate(results)]

    return [
        Unit("cmg_informations", len(cmg), batch(network, "cmg_informations", cmg),
             check_infos),
        Unit("cmg_region", len(cmg), batch(network, "cmg_region", cmg), check_cmg_region),
        Unit("cmg_region_via_projection", len(cmg),
             batch(network, "cmg_region_via_projection", cmg), check_projection),
        Unit("hk_region", len(hk), batch(network, "hk_region", hk), check_hk),
        Unit("si_capacity", len(cts), batch(network, "si_capacity", cts),
             region_check(ref_si)),
        Unit("sato_outer", len(cts), batch(network, "sato_outer", cts),
             region_check(ref_sato)),
        Unit("superposition_region", len(sup), batch(network, "superposition_region", sup),
             region_check(ref_sup)),
        Unit("marton_region", len(marton), batch(network, "marton_region", marton),
             region_check(ref_marton)),
        Unit("relay_pdf_rate", len(rel), batch(network, "relay_pdf_rate", rel),
             lambda rs: [close(r, ref_relay(i)) for i, r in enumerate(rs)]),
    ]


CMG_COEFFS = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (1.0, 1.0),
              (1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]


# ---------------------------------------------------------------------------
# srm-decoder: dense 2^n linear algebra

SRM_RATE, SRM_DELTA, SRM_BLOCKLENGTHS, SRM_SEEDS = 0.3, 0.4, (2, 4, 6, 8), 4
HIGH_RATE, HIGH_N = 0.6, 8


def srm_decoder(seed, out_dir, spawner):
    from functools import reduce

    from qnetcap import codesim
    from qnetcap.channels import builtin

    ch = builtin("bb84_p2p")
    seeds = [SRM_SEEDS * seed + i for i in range(SRM_SEEDS)]
    cb = codesim.Codebook.random(ch.input_alphabets[0], HIGH_N, HIGH_RATE, seed)
    stage = {}

    def check_sweep(n):
        def check(rows):
            ok_mean = (len(rows) == len(seeds)
                       and np.mean([r[5] for r in rows]) >= np.mean([r[4] for r in rows]))
            return [ok_mean and r[:4] == (n, SRM_RATE, s, SRM_DELTA)
                    and 0.0 <= r[4] <= 1.0 and r[5] >= 0.0
                    for r, s in zip(rows, seeds)]
        return check

    def keep(key, fn):
        def run():
            if key == "projs":
                # drop the previous pass's matrices first, so the peak
                # memory does not depend on how many passes ran
                stage.clear()
            stage[key] = fn()
            return stage[key]
        return run

    def rank(p):
        return int(round(float(np.trace(p).real)))

    @functools.cache
    def entropy_centers():
        rho = {x: ch.outputs[(x,)].entries for x in ch.input_alphabets[0]}
        mean = sum(rho.values()) / len(rho)
        per_symbol = {x: refcheck.xlogx_sum(np.linalg.eigvalsh(r)) for x, r in rho.items()}
        return refcheck.xlogx_sum(np.linalg.eigvalsh(mean)), per_symbol

    def check_projectors(projs):
        h_bar, h_x = entropy_centers()
        ok = rank(projs.average) <= 2 ** (HIGH_N * (h_bar + SRM_DELTA)) + 1e-9
        for word, c in zip(cb.codewords, projs.conditional):
            h_emp = np.mean([h_x[x] for x in word])
            ok = ok and rank(c) <= 2 ** (HIGH_N * (h_emp + SRM_DELTA)) + 1e-9
        return [ok and len(projs.conditional) == cb.M]

    def check_measurement(povm):
        supports = sum(rank(stage["projs"].conditional[m]) for m in range(cb.M))
        return [len(povm.elements) == cb.M + 1
                and 1 <= povm.info["s_rank"] <= min(2**HIGH_N, supports)]

    def check_exact(err):
        povm = stage["povm"]
        hits = [
            np.vdot(reduce(np.kron, [ch.outputs[(x,)].entries for x in w]),
                    povm.elements[m]).real
            for m, w in enumerate(cb.codewords)
        ]
        return [0.0 <= err <= 1.0 and close(err, 1.0 - np.mean(hits), 1e-9)]

    units = [
        Unit(f"srm_error_sweep[n={n}]", len(seeds),
             late(codesim, "srm_error_sweep", ch, SRM_RATE, [n], SRM_DELTA, seeds),
             check_sweep(n))
        for n in SRM_BLOCKLENGTHS
    ]
    units += [
        Unit("projector_set[R=0.6]", 1,
             keep("projs", late(codesim, "projector_set", ch, cb, SRM_DELTA)),
             check_projectors),
        Unit("square_root_measurement[R=0.6]", 1,
             keep("povm", lambda: codesim.square_root_measurement(
                 ch, cb, SRM_DELTA, projs=stage["projs"])),
             check_measurement),
        Unit("exact_error[R=0.6]", 1,
             keep("err", lambda: codesim.exact_error(ch, cb, stage["povm"])), check_exact),
        Unit("hn_diagnostic[R=0.6]", 1, lambda: codesim.hn_diagnostic(ch, cb, stage["projs"]),
             lambda hn: [hn >= 0.0 and hn >= stage["err"]]),
    ]
    return units


# ---------------------------------------------------------------------------
# cli-readme: the README commands, each in a fresh interpreter


def _floats(line):
    return [float(v) for v in line.split(",")]


def cli_readme(seed, out_dir, spawner):
    from qnetcap.channels import bb84_p2p, builtin, dump_channel
    from qnetcap.cli import build_parser

    work = out_dir / "cli"
    work.mkdir(parents=True, exist_ok=True)
    doc = dump_channel(bb84_p2p())
    doc["outputs"]["0"][0][0] = float("nan")
    (work / "nan_channel.json").write_text(json.dumps(doc))
    (work / "bad_bosonic.json").write_text('{"eta": [[0.3, 0.6], [0.6')

    h = refcheck.h2(math.cos(math.pi / 8) ** 2)
    angle = -0.3927

    def stdout_json(r):
        return json.loads(r.stdout[r.stdout.index("{"):])

    def p2p_classical(r):
        c, s = math.cos(angle), math.sin(angle)
        t = [[c * c, s * s], [(c + s) ** 2 / 2, (c - s) ** 2 / 2]]
        return close(r.stdout.strip(), refcheck.binary_channel_capacity(t))

    def mac_csv(r):
        lines = (work / "pentagon.csv").read_text().split("\n")
        pent = [((1.0, 0.0), h), ((0.0, 1.0), h), ((1.0, 1.0), 1.0)]
        rows = [_floats(ln) for ln in lines[1:] if ln]
        thetas = np.linspace(0.0, math.pi / 2, 181)
        return lines[0] == "theta,R1,R2" and len(rows) == 181 and all(
            close(row[0], th) and all_close(row[1:], refcheck.radial_point(pent, th))
            for row, th in zip(rows, thetas))

    def vsi_region(r):
        from qnetcap.entropic import ProbDist
        from qnetcap.network import CodeDistribution

        ch = builtin("theta_swap(1.5707963)")
        p1, p2 = (ProbDist.uniform(a) for a in ch.input_alphabets)
        t = refcheck.cts_table(ch, CodeDistribution.no_time_share(p1, p2))
        expected = [t.cmi({"X1"}, {"B1"}, {"X2", "Q"}), t.cmi({"X2"}, {"B2"}, {"X1", "Q"})]
        region = stdout_json(r)
        return (region["coords"] == ["R1", "R2"]
                and [row["c"] for row in region["ineqs"]] == [[1.0, 0.0], [0.0, 1.0]]
                and all_close([row["b"] for row in region["ineqs"]], expected))

    def cmg_region(r):
        from qnetcap.network import random_cmg_distribution

        qmac = builtin("bb84_qmac")
        dist = random_cmg_distribution(qmac, seed)
        expected = refcheck.cmg_bounds(refcheck.cmg_infos(qmac, dist))
        region = stdout_json(r)
        return (r.stdout.startswith("oracle agreement: 1.000000\n")
                and all_close([row["b"] for row in region["ineqs"]], expected))

    def bosonic_p2p(r):
        lines = (work / "curves.csv").read_text().split("\n")
        rows = [_floats(ln) for ln in lines[1:] if ln]
        ns = np.geomspace(0.01, 100.0, 41)
        return lines[0] == "NS,hom,het,holevo" and len(rows) == 41 and all(
            close(row[0], n) and all_close(row[1:], refcheck.bosonic_p2p_row(0.9, n, 1.0))
            for row, n in zip(rows, ns))

    def bosonic_hk(r):
        expected = refcheck.bosonic_hk_joint_bounds(0.3, 0.6, 0.6, 0.3, 100, 100, 1, 1, 0.8, 0.8)
        return all_close([row["b"] for row in stdout_json(r)["ineqs"]], expected)

    def sim_quantum(r):
        lines = r.stdout.strip().split("\n")
        rows = [_floats(ln) for ln in lines[1:]]
        keys = [(int(n), int(s)) for n, _, s, _, _, _ in rows]
        return (lines[0] == "n,R,seed,delta,exact_error,hn_bound"
                and keys == [(n, s) for n in (2, 4, 6, 8) for s in range(seed, seed + 5)]
                and all(R == 0.3 and d == 0.4 and 0.0 <= e <= 1.0 and hn >= 0.0
                        for _, R, _, d, e, hn in rows)
                and np.mean([row[5] for row in rows]) >= np.mean([row[4] for row in rows]))

    def sim_classical(r):
        v = dict(kv.split("=") for kv in r.stdout.split())
        trials, errors = int(v["trials"]), int(v["errors"])
        atyp, none, multi, wrong = (int(v[k]) for k in
                                    ("output_atypical", "no_match", "multi_match", "wrong_match"))
        return (trials == 2000 and close(v["error_rate"], errors / trials)
                and none + multi <= errors - atyp <= none + multi + wrong
                and multi <= wrong)

    readme = [
        ("capacity-p2p-holevo", "capacity p2p-holevo --builtin bb84_p2p",
         lambda r: close(r.stdout.strip(), h)),
        ("capacity-p2p-classical",
         f"capacity p2p-classical --builtin bb84_p2p --povm-angle {angle}", p2p_classical),
        ("region-mac", "region mac --builtin bb84_qmac --uniform --out pentagon.csv", mac_csv),
        ("region-vsi", "region vsi --builtin theta_swap(1.5707963) --grid 21", vsi_region),
        ("region-cmg", f"region cmg --builtin bb84_qmac --seed {seed} --oracle", cmg_region),
        ("bosonic-p2p", "bosonic p2p --param 0.9 1.0 --grid 41 --out curves.csv", bosonic_p2p),
        ("bosonic-hk", "bosonic hk --param 0.3 0.6 0.6 0.3 100 100 1 1 --lambda 0.8 0.8",
         bosonic_hk),
        ("sim-quantum", f"sim quantum --builtin bb84_p2p --param 0.3 --delta 0.4 --seed {seed}",
         sim_quantum),
        ("sim-classical", f"sim classical --builtin bb84_p2p --param 0.1 12 2000 --seed {seed}",
         sim_classical),
    ]
    # each of these should exit 2 (schema error); until the faults are
    # mended they exit 0 or 1 and count as failed operations
    malformed = [
        ("nan-channel-json", "capacity p2p-holevo --channel nan_channel.json"),
        ("nan-delta", "sim quantum --builtin bb84_p2p --param 0.3 --delta nan"),
        ("bad-bosonic-json", "bosonic hk --channel bad_bosonic.json"),
        ("nan-bosonic-param", "bosonic p2p --param 0.9 nan"),
        ("nan-povm-angle", "capacity p2p-classical --builtin bb84_p2p --povm-angle nan"),
    ]
    parser = build_parser()
    for _, line, *_ in readme + malformed:
        parser.parse_args(line.split())

    def unit(name, line, check, known_fault=False):
        argv = line.split()

        def run():
            for f in ("pentagon.csv", "curves.csv"):
                (work / f).unlink(missing_ok=True)
            return spawner.run([sys.executable, "-m", "qnetcap.cli", *argv], cwd=work)

        def run_traced(tracer):
            trace_file = out_dir / "cli_trace.json"
            result = spawner.run([sys.executable, BENCH_DIR / "cli_child.py", trace_file, *argv],
                                 cwd=work)
            tracer.merge(json.loads(trace_file.read_text()))
            return result

        expected_code = 2 if known_fault else 0
        return Unit(name, 1, run,
                    lambda r: [r.code == expected_code and (known_fault or check(r))],
                    known_fault=known_fault, run_traced=run_traced)

    return ([unit(*spec) for spec in readme]
            + [unit(name, line, None, known_fault=True) for name, line in malformed])


IMPORT_PROBE = (
    "import time; import numpy; t1 = time.perf_counter(); "
    "import scipy.optimize; t2 = time.perf_counter(); "
    "import qnetcap.cli, qnetcap.network, qnetcap.codesim, qnetcap.bosonic; "
    "print(t2 - t1)"
)


# the kernel parts (kernel.PARTS) whose work each workload resembles:
# interpreter loops with tiny numpy calls, dense 256x256 algebra, or
# starting fresh interpreters
REFERENCE = {
    "grid-sweeps": ("interp", "small", "dense"),
    "split-rate": ("interp", "small", "dense"),
    "srm-decoder": ("dense",),
    "cli-readme": ("spawn",),
}

WORKLOADS = {
    "grid-sweeps": grid_sweeps,
    "split-rate": split_rate,
    "srm-decoder": srm_decoder,
    "cli-readme": cli_readme,
}
