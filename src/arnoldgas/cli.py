"""Command-line front end with seeded, bit-stable file output.

Subcommands:
  params    kinetic-theory estimates as JSON on stdout
  tree      collision-tree leaves as CSV plus a JSON summary
  gas       N-particle run: trajectory CSV, optional spectrum CSV, JSON summary
  spectrum  re-fit growth exponents from a saved spectrum CSV
  verify    run the invariant self-check suite

Every output file starts with a one-line JSON manifest comment recording the
command, parameters, seed, collision matrix, generator, and tool version.
Every cell prints with 17 significant digits (%.17g), under which integers
still print as integers, so re-runs with the same manifest reproduce
byte-identical CSV bodies.  Exit codes: 0 success, 1 usage error or an
output that cannot be written, 2 runtime refusal (memory budget),
3 verification failure.

The environment variable ARNOLDGAS_OUTDIR, when set, is the base directory
for relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, gas, kinetics, maps, spectral, tree, verify

OUTDIR_ENV = "ARNOLDGAS_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_VERIFY_FAILED = 3

TREE_CSV_COLUMNS = ["stage", "n1", "n2", "dx", "dp", "norm"]
GAS_CSV_COLUMNS = ["t", "affected", "norm", "max_disp", "median_disp", "twin_dist"]
SPECTRUM_CSV_COLUMNS = ["t", "m1", "m2", "re_ntilde", "im_ntilde", "delta_twin", "delta_linear"]
# CSV lines joined, hashed and written at a time (about 1 MB of tree rows)
CSV_CHUNK_ROWS = 16384
# Parsed arguments left out of a manifest's params: `command` and `func` are
# the subcommand and its handler; `out` is where the files go; no output byte
# depends on `threads`; `seed` and `matrix` sit at the manifest's top level.
NOT_PARAMS = frozenset({"command", "func", "out", "threads", "seed", "matrix"})


class _FloatText:
    """argparse's negative-number pattern, widened to any text float() reads."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors; any float, such as -1e-9 or
    -inf, is an option's value and not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatText

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_out(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _manifest(args, matrix: list[list[int]]) -> dict:
    """The run's manifest; an option is a param unless NOT_PARAMS excludes it."""
    return {
        "command": args.command,
        "version": __version__,
        "params": {name: value for name, value in vars(args).items()
                   if name not in NOT_PARAMS},
        "generator": gas.RNG_NAME,
        "seed": args.seed,
        "model": matrix,
    }


def _write_csv(path: Path, manifest: dict, columns: list[str], rows, order) -> str:
    """Write manifest header + CSV; return the sha256 of the CSV body.

    Each row is a tuple with one value per column, and every cell prints
    with 17 significant digits (%.17g), which prints an integer of up to
    17 digits as %d would.  Each row is encoded once, and the body lists
    rows[k] for each k of `order` (a sequence or an int array), so a row
    may appear many times or not at all.

    The body is built CSV_CHUNK_ROWS lines at a time by one gather from the
    encoded rows, so it is never held whole.  A one-thread helper hashes
    each chunk, in order, while this thread writes it and builds the next;
    the next chunk is handed over only once the previous one is hashed, so
    at most two chunks are alive.  The helper is joined before this returns
    or raises.
    """
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    lines = np.array([(template % row).encode() for row in rows], dtype=object)
    digest = hashlib.sha256()
    head = (",".join(columns) + "\n").encode()
    with open(path, "wb") as fh, ThreadPoolExecutor(max_workers=1) as hasher:
        fh.write(("# " + json.dumps(manifest, sort_keys=True) + "\n").encode())
        hashed = hasher.submit(digest.update, head)
        fh.write(head)
        for start in range(0, len(order), CSV_CHUNK_ROWS):
            chunk = b"".join(lines[order[start:start + CSV_CHUNK_ROWS]].tolist())
            hashed.result()
            hashed = hasher.submit(digest.update, chunk)
            fh.write(chunk)
        hashed.result()
    return digest.hexdigest()


def _write_summary(path: Path, manifest: dict, summary: dict,
                   digests: dict[str, str]) -> None:
    payload = {"manifest": manifest, "summary": summary, "output_digests": digests}
    path.write_bytes((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_files(files, stale=()) -> None:
    """Write every (path, write) pair of a run, then rename them all into place.

    Each write(tmp) writes its file to a temporary sibling of its path.  Only
    once all are complete is each renamed over its path and a `wrote` line
    printed, and each path in `stale` that is a regular file removed: it
    belongs to the run's output set, but an earlier run wrote it.  An
    OSError removes the temporaries alone, so every output path keeps what
    it held, and is raised as a ValueError naming the path that failed.  A
    path that is a directory is refused before anything is written, since
    renaming over it would fail after earlier files had replaced theirs; a
    run's files share one directory, so any other rename failure strikes
    the first rename.
    """
    for path, _ in files:
        if path.is_dir():
            raise ValueError(f"cannot write {path}: Is a directory")
    staged: list[tuple[Path, Path]] = []
    try:
        for path, write in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))  # its directory exists, so unlinking it is safe
            write(tmp)
        for tmp, path in staged:
            os.replace(tmp, path)
        for path in stale:
            if path.is_file():
                path.unlink()
                print(f"removed {path}")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    for _, path in staged:
        print(f"wrote {path}")


def _write_results(out: Path, manifest: dict, summary: dict, tables) -> None:
    """Write each (path, columns, rows, order) CSV table, then out's summary
    with their digests, through _write_files.  The run's output set is out,
    its .spectrum.csv and its .summary.json; a file of that set left by an
    earlier run is removed once this run's files are in place."""
    digests: dict[str, str] = {}

    def write_table(path, columns, rows, order, tmp):
        digests[path.name] = _write_csv(tmp, manifest, columns, rows, order)

    written = [table[0] for table in tables]
    _write_files([(table[0], partial(write_table, *table)) for table in tables]
                 + [(out.with_suffix(".summary.json"),
                     partial(_write_summary, manifest=manifest, summary=summary,
                             digests=digests))],
                 stale=[path for path in (out, out.with_suffix(".spectrum.csv"))
                        if path not in written])


def integer(text: str) -> int:
    """The integer a text spells as [+-]?[0-9]+, the reader of every integer
    option; int() would also read spaces and underscores, as in ' 64' and
    '1_024', which are refused.  argparse names it in its error line."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"invalid integer: {text!r}")
    return int(text)


def _parse_matrix(text: str) -> list[list[int]]:
    try:  # a wrong count fails the unpacking, anything but an integer fails integer()
        a, b, c, d = map(integer, text.split(","))
    except ValueError:
        raise ValueError("matrix must be four comma-separated integers a,b,c,d") from None
    return [[a, b], [c, d]]


# ---------------------------------------------------------------- params


def cmd_params(args) -> int:
    params = kinetics.KineticParams(**{param.name: getattr(args, param.name)
                                       for param in dataclasses.fields(kinetics.KineticParams)})
    payload = {"inputs": kinetics.unit_keyed(params),
               "derived": kinetics.unit_keyed(kinetics.derive(params))}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ------------------------------------------------------------------ tree


def cmd_tree(args) -> int:
    # both are recorded in the manifest even with --aggregate-only
    maps.check_epsilon(args.epsilon)
    gas.check_seed(args.seed)
    stages = args.stages
    if stages < 0:
        raise ValueError(f"--stages must be >= 0, got {stages}")
    matrix = _parse_matrix(args.matrix)
    model = maps.spectral_decompose(matrix)
    try:
        geo_closed, arith_closed = tree.mean_dilations_closed(model, stages)
        gasdil_closed = tree.gas_dilation_closed(model, stages)
        bound = tree.gas_dilation_bound(stages)
    except OverflowError:
        raise ValueError(f"--stages {stages} is too large: the closed-form "
                         "dilations overflow a float") from None
    out = _resolve_out(args.out)
    manifest = _manifest(args, matrix)

    summary = {
        "stages": stages,
        "n_leaves": 2**stages,
        "geometric_mean_dilation_closed": geo_closed,
        "arithmetic_mean_dilation_closed": arith_closed,
        "gas_dilation_closed": gasdil_closed,
        "gas_dilation_bound": bound,
        "bound_satisfied": gasdil_closed >= bound,
    }

    tables = []
    if not args.aggregate_only:
        run = tree.run_tree(model, stages)
        geo, arith = tree.mean_dilations(run)
        summary["geometric_mean_dilation"] = geo
        summary["arithmetic_mean_dilation"] = arith
        summary["gas_dilation"] = tree.gas_dilation(run)
        tables.append((out, TREE_CSV_COLUMNS, *tree.leaf_records(run, args.epsilon)))

    _write_results(out, manifest, summary, tables)
    return EXIT_OK


# ------------------------------------------------------------------- gas


def cmd_gas(args) -> int:
    matrix = _parse_matrix(args.matrix)
    model = maps.spectral_decompose(matrix)
    if args.modes < 0:
        raise ValueError(f"--modes must be >= 0, got {args.modes}")
    if args.threads < 0:
        raise ValueError(f"--threads must be >= 0, got {args.threads}")
    config = gas.RunConfig(
        n_particles=args.particles,
        steps=args.steps,
        epsilon=args.epsilon,
        seed=args.seed,
        pairing=args.pairing,
        twin=args.twin == "on",
    )
    if args.particles % 2:
        print(f"warning: odd particle count {args.particles}; one particle "
              "idles each step", file=sys.stderr)
    manifest = _manifest(args, matrix)
    out = _resolve_out(args.out)

    # --threads 0: one worker per CPU this process may run on, less the one
    # that steps the gas, and at least one
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # Every result is computed before the first file is written, so a
    # failure leaves no partial output behind.
    traj, window, results = spectral.analyse_gas(
        config, model, spectral.enumerate_modes(args.modes), args.threads or max(1, cpus - 1))
    rows = list(zip(range(args.steps + 1), traj.affected_count, traj.norm, traj.max_disp,
                    traj.median_disp, traj.twin_dist))

    t_s = gas.significance_time(traj)
    t_sat = traj.saturation_step
    summary: dict = {
        "significance_time": None if math.isinf(t_s) else t_s,
        "saturation_step": None if math.isinf(t_sat) else t_sat,
    }

    outputs = [(out, GAS_CSV_COLUMNS, rows, range(len(rows)))]
    if results:
        summary["fit_window"] = list(window)
        summary["modes"] = [result.report for result in results]
        spectrum_rows = []
        for series, linear, twin, _report in results:
            twin = [math.nan] * len(linear) if twin is None else twin
            spectrum_rows += zip(range(len(linear)), repeat(series.mode.m1),
                                 repeat(series.mode.m2), series.values.real.tolist(),
                                 series.values.imag.tolist(), twin, linear)
        outputs.append((out.with_suffix(".spectrum.csv"), SPECTRUM_CSV_COLUMNS,
                        spectrum_rows, range(len(spectrum_rows))))

    _write_results(out, manifest, summary, outputs)
    return EXIT_OK


# -------------------------------------------------------------- spectrum


def _read_spectrum_csv(path: Path) -> tuple[dict, dict[tuple[int, int], np.ndarray]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path} has no manifest header line")
    try:
        manifest = json.loads(lines[0][1:])
    except ValueError as exc:
        raise ValueError(f"{path} line 1: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"{path} has no column line after its manifest")
    columns = lines[1].split(",")
    idx = {name: i for i, name in enumerate(columns)}
    for required in ("t", "m1", "m2", "delta_twin", "delta_linear"):
        if required not in idx:
            raise ValueError(f"{path} is missing column {required!r}")
    per_mode: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
    rows = lines[2:]
    for number, line in enumerate(rows, start=3):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path} line {number} has {len(cells)} cells, "
                             f"expected {len(columns)}")
        try:
            key = (integer(cells[idx["m1"]]), integer(cells[idx["m2"]]))
            t = integer(cells[idx["t"]])
            pair = (float(cells[idx["delta_twin"]]), float(cells[idx["delta_linear"]]))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        # a mode's series cannot be longer than the file, which also bounds
        # the arrays allocated below
        if not 0 <= t < len(rows):
            raise ValueError(f"{path} line {number} has t = {t}, outside "
                             f"0..{len(rows) - 1} for a file of {len(rows)} rows")
        by_t = per_mode.setdefault(key, {})
        if t in by_t:
            raise ValueError(f"{path} line {number} repeats mode {key} at t = {t}")
        by_t[t] = pair
    if not per_mode:
        raise ValueError(f"{path} has no data rows after its column line")
    # every mode lists t = 0..T once, with one T for the whole file
    times = range(max((max(by_t) for by_t in per_mode.values()), default=-1) + 1)
    for key, by_t in sorted(per_mode.items()):
        if len(by_t) < len(times):
            missing = min(set(times) - by_t.keys())
            raise ValueError(f"{path} has no row for mode {key} at t = {missing}; "
                             f"every mode needs t = 0..{times[-1]}")
    series = {key: np.array([by_t[t] for t in times]) for key, by_t in per_mode.items()}
    return manifest, series


def _gas_fit_window(manifest) -> tuple[int, int] | None:
    """The window the gas summary fitted: spectral.fit_window of the particle
    and step counts in the manifest's params, or None if it has none."""
    try:
        particles, steps = (manifest["params"][key] for key in ("particles", "steps"))
    except (KeyError, TypeError):
        return None
    if type(particles) is int and type(steps) is int and particles >= 1 and steps >= 0:
        return spectral.fit_window(particles, steps)
    return None


def cmd_spectrum(args) -> int:
    path = Path(args.infile)
    manifest, series = _read_spectrum_csv(path)
    use_twin = args.use == "twin"
    if use_twin and any(np.isnan(arr[:, 0]).all() for arr in series.values()):
        raise ValueError(f"{path} has no delta_twin values; it was written without "
                         "`gas --twin on`, so only --use linear can be fitted")
    window = tuple(args.window) if args.window else _gas_fit_window(manifest)
    if window is None:
        raise ValueError(f"{path} has no gas params.particles and params.steps in its "
                         "manifest to take the fit window from; give --window T_A T_B")
    reports = [spectral.fit_report(mode, arr[:, 0 if use_twin else 1], window)
               for mode, arr in sorted(series.items())]
    payload = {
        "source": str(path),
        "source_manifest": manifest,
        "use": args.use,
        "fit_window": list(window),
        "modes": reports,
    }
    if args.out:
        out = _resolve_out(args.out)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_files([(out, lambda tmp: tmp.write_bytes(text.encode()))])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    results = verify.run_checks()
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if not failed:
        print(f"all {len(results)} checks passed")
        return EXIT_OK
    print(f"FAILED: {', '.join(failed)}")
    return EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ main


def _collision_options(p) -> None:
    """Add --epsilon, --seed and --matrix, defaulting to gas.RunConfig and DEFAULT_CAT_MATRIX."""
    p.add_argument("--epsilon", type=float, default=gas.RunConfig.epsilon)
    p.add_argument("--seed", type=integer, default=gas.RunConfig.seed)
    matrix = ",".join(str(entry) for row in maps.DEFAULT_CAT_MATRIX for entry in row)
    p.add_argument("--matrix", default=matrix, help="collision matrix a,b,c,d")


def build_parser() -> _Parser:
    parser = _Parser(prog="arnoldgas",
                     description="Deterministic cat-map gas simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="kinetic-theory estimates (JSON to stdout)")
    for param in dataclasses.fields(kinetics.KineticParams):
        p.add_argument(f"--{param.name}", type=float, default=param.default,
                       help=f"in {param.metadata['unit']}")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("tree", help="collision-tree leaves (CSV + JSON summary)")
    p.add_argument("--stages", type=integer, required=True)
    _collision_options(p)
    p.add_argument("--aggregate-only", action="store_true",
                   help="skip explicit leaves; closed-form aggregates only")
    p.add_argument("--out", default="tree.csv")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("gas", help="N-particle run (CSV trajectory + JSON summary)")
    p.add_argument("--particles", type=integer, required=True)
    p.add_argument("--steps", type=integer, required=True)
    _collision_options(p)
    p.add_argument("--pairing", choices=sorted(gas.PAIRINGS), default=gas.RunConfig.pairing)
    p.add_argument("--modes", type=integer, default=4,
                   help="max |m| of Fourier modes to analyze (0 disables)")
    p.add_argument("--twin", choices=["on", "off"],
                   default="on" if gas.RunConfig.twin else "off")
    p.add_argument("--threads", type=integer, default=0,
                   help="worker threads for mode analysis (0 = one per usable CPU "
                        "but the one that steps the gas, and at least one)")
    p.add_argument("--out", default="gas.csv")
    p.set_defaults(func=cmd_gas)

    p = sub.add_parser("spectrum", help="re-fit growth from a saved spectrum CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--use", choices=["linear", "twin"], default="linear")
    p.add_argument("--window", type=integer, nargs=2, metavar=("T_A", "T_B"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the invariant self-check suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:  # raised under spectral.analyse_gas's np.errstate
        print(f"error: {exc}: a displacement overflows a float; lower --epsilon",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
