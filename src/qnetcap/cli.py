"""Command line front end.

Four command families: ``capacity`` for point-to-point numbers, ``region``
for rate-region geometry, ``bosonic`` for the Gaussian interference
formulas, and ``sim`` for the decoder simulations.  Every run is
deterministic given its flags and seed; artifacts are written to a
temporary file and renamed into place so a failed run never leaves a
partial output behind.

Exit codes: 0 on success, 2 for argument or input-schema problems, 3 when
a numerical invariant is violated (for example an oracle disagreement
under ``region cmg --oracle``).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ORACLE_TOL, InvariantError, SchemaError, read_json, whole_number

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_REGION_KINDS = (
    "mac",
    "vsi",
    "si",
    "hk",
    "cmg",
    "sato",
    "bc-superposition",
    "bc-marton",
    "relay-pdf",
)

_SIM_BLOCKLENGTHS = (2, 4, 6, 8)


def _apply_thread_cap():
    """Honor QNETCAP_THREADS before any numeric library is imported."""
    cap = os.environ.get("QNETCAP_THREADS")
    if cap is None or cap == "":
        return
    try:
        value = int(cap)
    except ValueError:
        raise SchemaError(f"QNETCAP_THREADS must be an integer, got {cap!r}")
    if value < 1:
        raise SchemaError(f"QNETCAP_THREADS must be >= 1, got {value}")
    for var in _THREAD_VARS:
        os.environ[var] = str(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated flag bundle for one command invocation; defaults are the parser's."""

    command: str
    subcommand: str
    builtin: str | None
    channel: str | None
    params: tuple
    grid: int | None
    delta: float
    seed: int
    out: str | None
    mode: str | None
    lam: tuple | None
    oracle: bool
    uniform: bool
    povm_angle: float | None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls(
            command=args.command,
            subcommand=args.subcommand,
            builtin=getattr(args, "builtin", None),
            channel=args.channel,
            params=tuple(args.param),
            grid=args.grid,
            delta=args.delta,
            seed=args.seed,
            out=args.out,
            mode=getattr(args, "mode", None),
            lam=tuple(args.lam) if getattr(args, "lam", None) else None,
            oracle=getattr(args, "oracle", False),
            uniform=getattr(args, "uniform", False),
            povm_angle=getattr(args, "povm_angle", None),
        )
        if cfg.grid is not None and cfg.grid < 2:
            raise SchemaError(f"--grid must be >= 2, got {cfg.grid}")
        numbers = {
            "--delta": (cfg.delta,),
            "--param": cfg.params,
            "--povm-angle": () if cfg.povm_angle is None else (cfg.povm_angle,),
            "--lambda": cfg.lam or (),
        }
        for flag, values in numbers.items():
            if not all(math.isfinite(v) for v in values):
                raise SchemaError(f"{flag} must be finite, got {list(values)}")
        if cfg.delta < 0:
            raise SchemaError(f"--delta must be >= 0, got {cfg.delta}")
        if not 0 <= cfg.seed < 2**64:
            raise SchemaError(f"--seed must fit in 64 bits, got {cfg.seed}")
        if cfg.command == "bosonic":
            if bool(cfg.params) == bool(cfg.channel):
                raise SchemaError(
                    "give exactly one parameter source (--param or --channel)"
                )
        else:
            if (cfg.builtin is None) == (cfg.channel is None):
                raise SchemaError(
                    "give exactly one channel source (--builtin or --channel)"
                )
        return cfg


def _add_channel_flags(sp, include_param=True):
    sp.add_argument("--builtin", metavar="NAME", help="named example channel")
    sp.add_argument("--channel", metavar="PATH", help="channel description JSON")
    if include_param:
        sp.add_argument(
            "--param",
            metavar="F",
            nargs="*",
            type=float,
            default=[],
            help="numeric parameters (builtin-channel parameters, or the"
            " command's own numbers where documented)",
        )


def _add_common_flags(sp, grid=21, delta=0.4):
    sp.add_argument("--grid", type=int, default=grid, metavar="N",
                    help="grid resolution (>= 2)")
    sp.add_argument("--delta", type=float, default=delta, metavar="F",
                    help="typicality width")
    sp.add_argument("--seed", type=int, default=0, metavar="U64")
    sp.add_argument("--out", metavar="PATH",
                    help="output file (.csv or .json); default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetcap",
        description="Capacity regions and decoder simulations for"
        " classical-quantum network channels.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cap = commands.add_parser("capacity", help="point-to-point capacities")
    cap_sub = cap.add_subparsers(dest="subcommand", required=True)
    for name in ("p2p-classical", "p2p-holevo"):
        sp = cap_sub.add_parser(name)
        _add_channel_flags(sp)
        # accepted for old command lines; capacities are computed without a grid
        _add_common_flags(sp, grid=None)
        if name == "p2p-classical":
            sp.add_argument(
                "--povm-angle",
                type=float,
                metavar="F",
                help="projective qubit measurement angle; default is the"
                " computational basis",
            )

    reg = commands.add_parser("region", help="achievable-rate regions")
    reg_sub = reg.add_subparsers(dest="subcommand", required=True)
    for name in _REGION_KINDS:
        sp = reg_sub.add_parser(name)
        _add_channel_flags(sp)
        _add_common_flags(sp)
        if name == "mac":
            sp.add_argument(
                "--uniform",
                action="store_true",
                help="single uniform product distribution instead of the"
                " grid union",
            )
        if name == "cmg":
            sp.add_argument(
                "--oracle",
                action="store_true",
                help="cross-check the region against the split-system"
                " projection route; nonzero exit on disagreement",
            )

    bos = commands.add_parser("bosonic", help="Gaussian interference formulas")
    bos_sub = bos.add_subparsers(dest="subcommand", required=True)
    for name in ("p2p", "vsi", "si", "hk"):
        sp = bos_sub.add_parser(name)
        sp.add_argument(
            "--param",
            metavar="F",
            nargs="*",
            type=float,
            default=[],
            help="p2p: eta NB; others: eta11 eta12 eta21 eta22 NS1 NS2 NB1 NB2",
        )
        sp.add_argument("--channel", metavar="PATH",
                        help="bosonic parameter JSON")
        sp.add_argument("--mode", metavar="M",
                        help="detection mode: hom, het, or joint")
        sp.add_argument("--lambda", dest="lam", nargs=2, type=float,
                        metavar="F", help="rate-split fractions in [0, 1]")
        _add_common_flags(sp)

    sim = commands.add_parser("sim", help="decoder simulations")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sq = sim_sub.add_parser("quantum")
    _add_channel_flags(sq, include_param=False)
    sq.add_argument(
        "--param",
        metavar="F",
        nargs="*",
        type=float,
        default=[],
        help="rate R, optionally followed by the codebook count per"
        " blocklength (default 5)",
    )
    _add_common_flags(sq)
    sc = sim_sub.add_parser("classical")
    _add_channel_flags(sc, include_param=False)
    sc.add_argument(
        "--param",
        metavar="F",
        nargs="*",
        type=float,
        default=[],
        help="rate R, blocklength n, trial count",
    )
    _add_common_flags(sc)
    return parser


# ---------------------------------------------------------------------------
# output plumbing


def _deliver(write, out):
    """Run ``write(path)`` on a temporary file beside ``out``, then rename
    it into place, so a failed run leaves no partial file."""
    target = os.path.abspath(os.fspath(out))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp~")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit_region(region, out):
    import json

    from .regions import export_boundary_csv, region_to_json, save_region_json

    if out is not None and str(out).endswith(".csv"):
        _deliver(lambda p: export_boundary_csv(region, p), out)
    elif out is not None:
        _deliver(lambda p: save_region_json(region, p), out)
    else:
        sys.stdout.write(json.dumps(region_to_json(region), indent=2) + "\n")


def _emit_rows(header, rows, out):
    lines = [header] + [",".join(format(v, ".10g") for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _deliver(lambda p: Path(p).write_text(text), out)


# ---------------------------------------------------------------------------
# command handlers


def _read_channel(cfg: RunConfig):
    """The ``--channel`` document, read before any numerical import so a
    file that is not JSON is reported first; None for ``--builtin``."""
    return None if cfg.channel is None else read_json(cfg.channel, "channel")


def _load_cq_channel(cfg: RunConfig, doc, builtin_params=None):
    from .channels import builtin, load_channel

    if cfg.channel is None:
        params = cfg.params if builtin_params is None else builtin_params
        return builtin(cfg.builtin, params=params)
    return load_channel(doc)


def _uniform_pair(ch):
    from .entropic import ProbDist
    from .network import input_pair

    return tuple(ProbDist.uniform(a) for a in input_pair(ch))


def _cmd_capacity(cfg: RunConfig) -> int:
    doc = _read_channel(cfg)

    from .channels import Povm, induced_classical_channel
    from .network import classical_capacity_BA, hsw_capacity

    ch = _load_cq_channel(cfg, doc)
    if cfg.subcommand == "p2p-classical":
        if cfg.povm_angle is not None:
            povm = Povm.qubit_projective(cfg.povm_angle)
        else:
            povm = Povm.computational(ch.output_dim)
        transition = induced_classical_channel(ch, povm)
        result = classical_capacity_BA(transition)
    else:
        result = hsw_capacity(ch)
    if cfg.grid is not None:
        print("note: --grid has no effect on capacity; the iteration needs no grid",
              file=sys.stderr)
    if not result.converged:
        print(f"warning: capacity iteration stopped after {result.iterations} steps"
              f" with certified gap {result.upper - result.value:.3e} bits",
              file=sys.stderr)
    value, dist = result
    print(format(value, ".10g"))
    if cfg.out is not None:
        import json

        doc = {"capacity": value, "input_distribution": list(dist.weights)}
        _deliver(lambda p: Path(p).write_text(json.dumps(doc, indent=2) + "\n"),
                 cfg.out)
    return EXIT_OK


def _cmg_oracle_status(direct, projected) -> tuple[float, bool]:
    """The share of a 50 x 50 square of rate pairs on which the direct and
    projected common-message regions agree about membership (to
    ORACLE_TOL), and whether the two regions are exactly equal."""
    import numpy as np

    from .regions import equivalent

    top = 1.05 * max(
        bound for r in (direct, projected) for _, bound in r.inequalities
    )
    axis = np.linspace(0.0, top, 50)
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    agree = direct.contains(points, tol=ORACLE_TOL) == projected.contains(points, tol=ORACLE_TOL)
    return int(np.sum(agree)) / len(points), equivalent(direct, projected)


def _cmd_region(cfg: RunConfig) -> int:
    doc = _read_channel(cfg)

    from .network import (
        CodeDistribution,
        cmg_region,
        cmg_regions,
        hk_region,
        mac_region,
        mac_region_union,
        marton_region,
        random_cmg_distribution,
        random_hk_distribution,
        random_marton_distribution,
        random_relay_distribution,
        random_superposition_distribution,
        relay_pdf_rate,
        sato_outer,
        si_capacity,
        superposition_region,
        vsi_capacity,
    )

    ch = _load_cq_channel(cfg, doc)
    sub = cfg.subcommand
    if sub == "mac":
        if cfg.uniform:
            p1, p2 = _uniform_pair(ch)
            _emit_region(mac_region(ch, p1, p2), cfg.out)
        else:
            rows = mac_region_union(ch, grid=cfg.grid)
            _emit_rows("theta,R1,R2", rows, cfg.out)
        return EXIT_OK
    if sub in ("vsi", "si", "sato"):
        p1, p2 = _uniform_pair(ch)
        dist = CodeDistribution.no_time_share(p1, p2)
        fn = {"vsi": vsi_capacity, "si": si_capacity, "sato": sato_outer}[sub]
        _emit_region(fn(ch, dist), cfg.out)
        return EXIT_OK
    if sub == "hk":
        dist = random_hk_distribution(ch, cfg.seed)
        _emit_region(hk_region(ch, dist), cfg.out)
        return EXIT_OK
    if sub == "cmg":
        dist = random_cmg_distribution(ch, cfg.seed)
        if cfg.oracle:
            region, projected = cmg_regions(ch, dist)
            fraction, ok = _cmg_oracle_status(region, projected)
            print(f"oracle agreement: {fraction:.6f}")
            if not ok:
                print("error: region routes disagree", file=sys.stderr)
                return EXIT_INVARIANT
        else:
            region = cmg_region(ch, dist)
        _emit_region(region, cfg.out)
        return EXIT_OK
    if sub == "bc-superposition":
        dist = random_superposition_distribution(ch, cfg.seed)
        _emit_region(superposition_region(ch, dist), cfg.out)
        return EXIT_OK
    if sub == "bc-marton":
        dist = random_marton_distribution(ch, cfg.seed)
        _emit_region(marton_region(ch, dist), cfg.out)
        return EXIT_OK
    # relay-pdf: a single rate, not a region
    dist = random_relay_distribution(ch, cfg.seed)
    rate = relay_pdf_rate(ch, dist)
    print(format(rate, ".10g"))
    if cfg.out is not None:
        import json

        _deliver(
            lambda p: Path(p).write_text(json.dumps({"rate": rate}) + "\n"),
            cfg.out,
        )
    return EXIT_OK


def _bosonic_params(cfg: RunConfig, doc):
    from .bosonic import BosonicICParams, DetectionMode, params_from_json

    if cfg.channel is not None:
        params, mode = params_from_json(doc)
    else:
        params, mode = BosonicICParams(*cfg.params), DetectionMode.JOINT
    if cfg.lam is not None:
        params = replace(params, lambda1=cfg.lam[0], lambda2=cfg.lam[1])
    if cfg.mode is not None:
        mode = DetectionMode.parse(cfg.mode)
    return params, mode


def _cmd_bosonic(cfg: RunConfig) -> int:
    # flag and JSON-syntax errors are reported before numpy is imported
    doc = None
    if cfg.subcommand == "p2p":
        if len(cfg.params) != 2:
            raise SchemaError("expected 2 parameters: eta NB")
    elif cfg.channel is not None:
        doc = read_json(cfg.channel, "bosonic parameter")
    elif len(cfg.params) != 8:
        raise SchemaError(
            "expected 8 parameters: eta11 eta12 eta21 eta22 NS1 NS2 NB1 NB2"
        )

    import numpy as np

    from .bosonic import (
        bosonic_hk_region,
        bosonic_si,
        bosonic_vsi,
        c_heterodyne,
        c_holevo,
        c_homodyne,
    )

    if cfg.subcommand == "p2p":
        eta, nb = cfg.params
        rows = [
            (ns, c_homodyne(eta, ns, nb), c_heterodyne(eta, ns, nb),
             c_holevo(eta, ns, nb))
            for ns in np.geomspace(0.01, 100.0, cfg.grid)
        ]
        _emit_rows("NS,hom,het,holevo", rows, cfg.out)
        return EXIT_OK
    params, mode = _bosonic_params(cfg, doc)
    if cfg.subcommand == "hk":
        _emit_region(bosonic_hk_region(params, mode), cfg.out)
        return EXIT_OK
    fn = bosonic_vsi if cfg.subcommand == "vsi" else bosonic_si
    condition, region = fn(params, mode)
    print(f"condition: {'true' if condition else 'false'}")
    _emit_region(region, cfg.out)
    return EXIT_OK


def _cmd_sim(cfg: RunConfig) -> int:
    # the --param checks need only the flags, so they run before numpy loads
    if cfg.subcommand == "quantum":
        if not 1 <= len(cfg.params) <= 2:
            raise SchemaError("expected rate R and optional codebook count")
        rate = cfg.params[0]
        count = (whole_number(cfg.params[1], "codebook count")
                 if len(cfg.params) == 2 else 5)
        if count < 1:
            raise SchemaError(f"codebook count must be >= 1, got {count}")
    else:
        if len(cfg.params) != 3:
            raise SchemaError("expected parameters: rate R, blocklength n, trials")
        rate = cfg.params[0]
        n = whole_number(cfg.params[1], "blocklength")
        trials = whole_number(cfg.params[2], "trial count")
    doc = _read_channel(cfg)

    from .channels import Povm, induced_classical_channel
    from .entropic import ProbDist

    ch = _load_cq_channel(cfg, doc, builtin_params=())
    if cfg.subcommand == "quantum":
        from .codesim import srm_error_sweep

        rows = srm_error_sweep(
            ch,
            rate=rate,
            blocklengths=_SIM_BLOCKLENGTHS,
            delta=cfg.delta,
            seeds=range(cfg.seed, cfg.seed + count),
        )
        _emit_rows("n,R,seed,delta,exact_error,hn_bound", rows, cfg.out)
        return EXIT_OK
    from .codesim import classical_typical_decode_sim

    transition = induced_classical_channel(ch, Povm.computational(ch.output_dim))
    p = ProbDist.uniform(ch.input_alphabets[0])
    res = classical_typical_decode_sim(
        transition, p, rate=rate, n=n, delta=cfg.delta, trials=trials,
        seed=cfg.seed,
    )
    print(
        f"trials={res.trials} errors={res.errors}"
        f" error_rate={res.error_rate:.10g}"
        f" output_atypical={res.output_atypical} no_match={res.no_match}"
        f" multi_match={res.multi_match} wrong_match={res.wrong_match}"
    )
    if cfg.out is not None:
        _emit_rows(
            "n,R,seed,delta,trials,errors,error_rate,wrong_match",
            [(n, rate, cfg.seed, cfg.delta, res.trials, res.errors,
              res.error_rate, res.wrong_match)],
            cfg.out,
        )
    return EXIT_OK


_HANDLERS = {
    "capacity": _cmd_capacity,
    "region": _cmd_region,
    "bosonic": _cmd_bosonic,
    "sim": _cmd_sim,
}


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
