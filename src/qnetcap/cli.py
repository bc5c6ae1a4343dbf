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
import json
import math
import numbers
import os
import sys
import tempfile
from pathlib import Path

from .errors import InvariantError, SchemaError, read_json, whole_number

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3

# region subcommand -> (its seeded code distribution, the function of the
# channel and that distribution it prints), both named in ``network`` so that
# module loads only when a region command runs.  None stands for the uniform
# input pair without time sharing; ``mac`` takes the pair itself.
_REGIONS = {
    "mac": (None, "mac_region"),
    "vsi": (None, "vsi_capacity"),
    "si": (None, "si_capacity"),
    "hk": ("random_hk_distribution", "hk_region"),
    "cmg": ("random_cmg_distribution", "cmg_region"),
    "sato": (None, "sato_outer"),
    "bc-superposition": ("random_superposition_distribution", "superposition_region"),
    "bc-marton": ("random_marton_distribution", "marton_region"),
    "relay-pdf": ("random_relay_distribution", "relay_pdf_rate"),
}
_REGION_KINDS = tuple(_REGIONS)

_SIM_BLOCKLENGTHS = (2, 4, 6, 8)

# what --out writes: the suffix of its one format, or None for a region, which
# writes its boundary sweep to a .csv file and the JSON of stdout to any other
_OUT_HELP = {
    ".csv": "output CSV file; default stdout",
    ".json": "output JSON file; default stdout",
    None: "output file: the region's boundary sweep (theta,R1,R2) for a .csv"
          " name, else the JSON of stdout; default stdout",
}

# largest --grid: a million signal powers, or points per simplex edge, is far
# past any plot, while a grid too large for memory (or for a float) would end
# in a traceback instead of an argument error
_GRID_MAX = 10**6


def _check_flags(args):
    """Reject flag values no command accepts: a grid outside 2 to _GRID_MAX,
    a non-finite number, a negative delta, a seed outside 64 bits, an
    ``--out`` name with the suffix of the format the command does not write,
    anything but exactly one channel (for ``bosonic``, parameter) source,
    and ``--mode`` or ``--lambda`` beside a ``--channel`` document.  Each
    check reads its flag only where the subcommand defines it."""
    flags = vars(args)
    if not 2 <= flags.get("grid", 2) <= _GRID_MAX:
        raise SchemaError(f"--grid must be from 2 to {_GRID_MAX}, got {args.grid}")
    delta, povm_angle = flags.get("delta"), flags.get("povm_angle")
    finite = {
        "--delta": [] if delta is None else [delta],
        "--param": flags.get("param", []),
        "--povm-angle": [] if povm_angle is None else [povm_angle],
        "--lambda": flags.get("lam") or [],
    }
    for flag, values in finite.items():
        if not all(math.isfinite(v) for v in values):
            raise SchemaError(f"{flag} must be finite, got {values}")
    if delta is not None and delta < 0:
        raise SchemaError(f"--delta must be >= 0, got {args.delta}")
    if not 0 <= flags.get("seed", 0) < 2**64:
        raise SchemaError(f"--seed must fit in 64 bits, got {args.seed}")
    # region mac writes a region only with --uniform
    suffix = None if flags.get("uniform") else args.out_suffix
    out = args.out or ""
    if suffix is not None and out.endswith((".csv", ".json")) and not out.endswith(suffix):
        raise SchemaError(f"--out {out}: {args.command} {args.subcommand} writes"
                          f" {suffix[1:].upper()}; use a {suffix} name")
    if args.command != "bosonic":
        if (args.builtin is None) == (args.channel is None):
            raise SchemaError("give exactly one channel source (--builtin or --channel)")
    elif "channel" in flags and bool(args.param) == bool(args.channel):
        raise SchemaError("give exactly one parameter source (--param or --channel)")
    elif flags.get("channel") is not None and (args.mode, flags.get("lam")) != (None, None):
        raise SchemaError("--mode and --lambda go with --param, not --channel")


def _add_param_flag(sp, help_text):
    sp.add_argument("--param", metavar="F", nargs="*", type=float, default=[],
                    help=help_text)


def _add_channel_flags(sp):
    sp.add_argument("--builtin", metavar="NAME",
                    help="named example channel, its parameters in the name:"
                    " theta_swap(1.2)")
    sp.add_argument("--channel", metavar="PATH", help="channel description JSON")


def _add_grid_flag(sp, help_text):
    sp.add_argument("--grid", type=int, default=21, metavar="N", help=help_text)


def _add_seed_flag(sp):
    sp.add_argument("--seed", type=int, default=0, metavar="U64")


def _add_out_flag(sp, suffix, help_text=None):
    sp.add_argument("--out", metavar="PATH", help=help_text or _OUT_HELP[suffix])
    sp.set_defaults(out_suffix=suffix)


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
        _add_out_flag(sp, ".json")
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
        # mac reads --grid; vsi accepts and ignores it, as its README line shows
        if name in ("mac", "vsi"):
            _add_grid_flag(sp, "points per simplex edge (3 to 10**6)" if name == "mac"
                           else "accepted and ignored")
        if _REGIONS[name][0] is not None:
            _add_seed_flag(sp)
        if name == "mac":
            _add_out_flag(sp, ".csv", "output CSV file of the grid union; with"
                          " --uniform, as for any region, the boundary sweep"
                          " (theta,R1,R2) for a .csv name, else the JSON of"
                          " stdout; default stdout")
            sp.add_argument(
                "--uniform",
                action="store_true",
                help="single uniform product distribution instead of the"
                " grid union",
            )
        else:
            _add_out_flag(sp, ".json" if name == "relay-pdf" else None)
        if name == "cmg":
            sp.add_argument(
                "--oracle",
                action="store_true",
                help="cross-check the region against the split-system"
                " projection route; nonzero exit on disagreement",
            )

    bos = commands.add_parser("bosonic", help="Gaussian interference formulas")
    bos_sub = bos.add_subparsers(dest="subcommand", required=True)
    sp = bos_sub.add_parser("p2p")
    _add_param_flag(sp, "eta NB")
    _add_grid_flag(sp, help_text="signal powers from 0.01 to 100 (2 to 10**6)")
    _add_out_flag(sp, ".csv")
    for name in ("vsi", "si", "hk"):
        sp = bos_sub.add_parser(name)
        _add_param_flag(sp, "eta11 eta12 eta21 eta22 NS1 NS2 NB1 NB2")
        sp.add_argument("--channel", metavar="PATH",
                        help="bosonic parameter JSON")
        sp.add_argument("--mode", metavar="M",
                        help="detection mode: hom, het, or joint (default)")
        if name == "hk":
            sp.add_argument("--lambda", dest="lam", nargs=2, type=float,
                            metavar="F", help="rate-split fractions in [0, 1]")
        _add_out_flag(sp, None)

    sim = commands.add_parser("sim", help="decoder simulations")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    for name, param_help in (
        ("quantum", "rate R, optionally followed by the codebook count per"
                    " blocklength (default 5)"),
        ("classical", "rate R, blocklength n, trial count"),
    ):
        sp = sim_sub.add_parser(name)
        _add_channel_flags(sp)
        _add_param_flag(sp, param_help)
        sp.add_argument("--delta", type=float, default=0.4, metavar="F",
                        help="typicality width")
        _add_seed_flag(sp)
        _add_out_flag(sp, ".csv")
    return parser


# ---------------------------------------------------------------------------
# output plumbing


def _deliver(write, out):
    """Run ``write(path)`` on a temporary file beside ``out``, then rename
    it into place, so a failed run leaves no partial file; an OS error
    names ``out`` as given, not the temporary file."""
    target = os.path.abspath(os.fspath(out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp~")
        os.close(fd)
        write(tmp)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(out)) from None
        raise


def _emit(text, out):
    """``text`` to stdout, or to the file ``out`` through ``_deliver``."""
    if out is None:
        sys.stdout.write(text)
    else:
        _deliver(lambda p: Path(p).write_text(text), out)


def _cell(v):
    """A CSV value: an integer whole, any other number to ten digits."""
    return format(v, "d" if isinstance(v, numbers.Integral) else ".10g")


def _emit_rows(header, rows, out):
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _emit_json(doc, out):
    """``doc`` as indented JSON, the one layout of every JSON artifact."""
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _emit_region(region, out):
    """The region's boundary sweep to a ``.csv`` file, or else its indented
    JSON, with the same bytes on stdout and in any other file."""
    from .regions import boundary_sample, region_to_json

    if out is not None and str(out).endswith(".csv"):
        _emit_rows("theta,R1,R2", boundary_sample(region, 181), out)
    else:
        _emit_json(region_to_json(region), out)


# ---------------------------------------------------------------------------
# command handlers


def _load_cq_channel(args):
    """The channel of ``--builtin`` or ``--channel``.  A ``--channel`` file
    is read with the standard library before numpy loads, so a file that is
    not JSON is reported first."""
    doc = None if args.channel is None else read_json(args.channel, "channel")
    from .channels import builtin, load_channel

    return builtin(args.builtin) if args.channel is None else load_channel(doc)


def _cmd_capacity(args) -> int:
    ch = _load_cq_channel(args)
    from .channels import Povm, induced_classical_channel
    from .network import classical_capacity_BA, hsw_capacity

    if args.subcommand == "p2p-classical":
        if args.povm_angle is not None:
            povm = Povm.qubit_projective(args.povm_angle)
        else:
            povm = Povm.computational(ch.output_dim)
        transition = induced_classical_channel(ch, povm)
        result = classical_capacity_BA(transition)
    else:
        result = hsw_capacity(ch)
    if not result.converged:
        print(f"warning: capacity iteration stopped after {result.iterations} steps"
              f" with certified gap {result.upper - result.value:.3e} bits",
              file=sys.stderr)
    value, dist = result
    print(format(value, ".10g"))
    if args.out is not None:
        _emit_json({"capacity": value, "input_distribution": list(dist.weights)}, args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    ch = _load_cq_channel(args)
    from . import network
    from .entropic import ProbDist

    if args.subcommand == "mac" and not args.uniform:
        _emit_rows("theta,R1,R2", network.mac_region_union(ch, grid=args.grid), args.out)
        return EXIT_OK
    draw, compute = _REGIONS[args.subcommand]
    if draw is not None:
        inputs = [getattr(network, draw)(ch, args.seed)]
    else:
        inputs = [ProbDist.uniform(a) for a in network.input_pair(ch)]
        if args.subcommand != "mac":
            inputs = [network.CodeDistribution.no_time_share(*inputs)]
    if args.subcommand == "cmg" and args.oracle:
        from .regions import implied_share

        result, projected = network.cmg_regions(ch, *inputs)
        share = implied_share(result, projected)
        print(f"oracle agreement: {share:.6f}")
        if share != 1.0:
            print("error: region routes disagree", file=sys.stderr)
            return EXIT_INVARIANT
    else:
        result = getattr(network, compute)(ch, *inputs)
    if args.subcommand == "relay-pdf":  # a single rate, not a region
        print(format(result, ".10g"))
        if args.out is not None:
            _emit_json({"rate": result}, args.out)
    else:
        _emit_region(result, args.out)
    return EXIT_OK


def _bosonic_params(args, doc):
    """(params, mode) of the ``--channel`` document, or of ``--param``."""
    from .bosonic import BosonicICParams, params_from_json

    if args.channel is not None:
        return params_from_json(doc)
    params = BosonicICParams(*args.param, *(vars(args).get("lam") or ()))
    return params, "joint" if args.mode is None else args.mode


def _signal_powers(n):
    """``n`` signal powers from 0.01 to 100 spaced evenly in log, with the
    exponents and end points of ``np.geomspace(0.01, 100.0, n)``; an
    interior power may differ from numpy's in its last bit."""
    step = 4.0 / (n - 1)
    return [0.01] + [10.0 ** (i * step - 2.0) for i in range(1, n - 1)] + [100.0]


def _cmd_bosonic(args) -> int:
    # closed forms: only a region's .csv boundary sweep loads numpy
    doc = None
    if args.subcommand == "p2p":
        if len(args.param) != 2:
            raise SchemaError("expected 2 parameters: eta NB")
    elif args.channel is not None:
        doc = read_json(args.channel, "bosonic parameter")
    elif len(args.param) != 8:
        raise SchemaError(
            "expected 8 parameters: eta11 eta12 eta21 eta22 NS1 NS2 NB1 NB2"
        )

    from .bosonic import (
        bosonic_hk_region,
        bosonic_si,
        bosonic_vsi,
        c_heterodyne,
        c_holevo,
        c_homodyne,
    )

    if args.subcommand == "p2p":
        eta, nb = args.param
        rows = [
            (ns, c_homodyne(eta, ns, nb), c_heterodyne(eta, ns, nb),
             c_holevo(eta, ns, nb))
            for ns in _signal_powers(args.grid)
        ]
        _emit_rows("NS,hom,het,holevo", rows, args.out)
        return EXIT_OK
    params, mode = _bosonic_params(args, doc)
    if args.subcommand == "hk":
        _emit_region(bosonic_hk_region(params, mode), args.out)
        return EXIT_OK
    fn = bosonic_vsi if args.subcommand == "vsi" else bosonic_si
    condition, region = fn(params, mode)
    print(f"condition: {'true' if condition else 'false'}")
    _emit_region(region, args.out)
    return EXIT_OK


def _cmd_sim(args) -> int:
    # the --param checks need only the flags, so they run before numpy loads
    if args.subcommand == "quantum":
        if not 1 <= len(args.param) <= 2:
            raise SchemaError("expected rate R and optional codebook count")
        rate = args.param[0]
        count = (whole_number(args.param[1], "codebook count")
                 if len(args.param) == 2 else 5)
        if count < 1:
            raise SchemaError(f"codebook count must be >= 1, got {count}")
    else:
        if len(args.param) != 3:
            raise SchemaError("expected parameters: rate R, blocklength n, trials")
        rate = args.param[0]
        n = whole_number(args.param[1], "blocklength")
        trials = whole_number(args.param[2], "trial count")
    ch = _load_cq_channel(args)
    from .channels import Povm, induced_classical_channel
    from .entropic import ProbDist

    if args.subcommand == "quantum":
        from .codesim import srm_error_sweep

        rows = srm_error_sweep(
            ch,
            rate=rate,
            blocklengths=_SIM_BLOCKLENGTHS,
            delta=args.delta,
            seeds=range(args.seed, args.seed + count),
        )
        _emit_rows("n,R,seed,delta,exact_error,hn_bound", rows, args.out)
        return EXIT_OK
    from .codesim import classical_typical_decode_sim

    transition = induced_classical_channel(ch, Povm.computational(ch.output_dim))
    p = ProbDist.uniform(ch.input_alphabets[0])
    res = classical_typical_decode_sim(
        transition, p, rate=rate, n=n, delta=args.delta, trials=trials,
        seed=args.seed,
    )
    print(
        f"trials={res.trials} errors={res.errors}"
        f" error_rate={res.error_rate:.10g}"
        f" output_atypical={res.output_atypical} no_match={res.no_match}"
        f" multi_match={res.multi_match} wrong_match={res.wrong_match}"
    )
    if args.out is not None:
        _emit_rows(
            "n,R,seed,delta,trials,errors,error_rate,wrong_match",
            [(n, rate, args.seed, args.delta, res.trials, res.errors,
              res.error_rate, res.wrong_match)],
            args.out,
        )
    return EXIT_OK


_HANDLERS = {
    "capacity": _cmd_capacity,
    "region": _cmd_region,
    "bosonic": _cmd_bosonic,
    "sim": _cmd_sim,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        _check_flags(args)
        return _HANDLERS[args.command](args)
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
