"""Data-emitting command line for the library.

Every run writes exactly one artifact file, either CSV with a fixed header
or a JSON envelope {tool_version, command, params, rows}, beside its path
and then renamed into place, so a failed run leaves none.  Runs are
deterministic: identical configuration (including the seed) yields
byte-identical output, floats are written in shortest round-trip form, and
no timestamps or locale-dependent formatting are involved.

A table is typed columns, one numpy array per header name, from the row
builder to the file: a NaN anywhere is one isnan test per float column,
each column's dtype picks one cell format (a float column's repr runs once
per distinct value of a chunk), and CSV is written in chunks of
CSV_CHUNK_ROWS rows, so its memory is bounded by the columns themselves.

Configuration precedence: command-line flags > config file (key=value
lines) > built-in defaults.  The default output directory can be set with
the NHBOSON_OUTDIR environment variable.

A call builds only the invoked command's parser: when the first argument
names a command, main adds that one subparser (_build_parser(only)), which
parses and reports exactly as the full parser would.  Without a command
(no arguments, -h, --version or an unknown word) it builds all of them.

Start-up: importing this module loads numpy and every nhboson module, but
not mpmath (loaded by the calls that need it), numpy.polynomial or
dataclasses.  RunConfig, Command and the library's records are NamedTuples
or __slots__ classes, so no methods are generated and compiled at import,
and no module defers its annotations, so none is compiled from a string.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, fock, modes, wkb
from .operators import verify_identities

ENV_OUTDIR = "NHBOSON_OUTDIR"


class CliError(ValueError):
    pass


#: inclusive bounds of the size options.  The upper caps keep every array
#: far inside numpy's limits and a cap run under a minute (pseudo's about
#: 30 s, spectrum's 20 s, the others' a few seconds): spectrum grows as N^4,
#: biorth writes (max_index + 1)^4 rows from one Hermite table, norms
#: tabulates (max_index + 1) Hermite orders on nodes^2 points, expand
#: tabulates (cutoff + 1) orders on nodes points and contracts on nodes^2,
#: numrange grows linearly in theta_steps, and accretive's draws are bounded
#: jointly by ACCRETIVE_DRAWS_MAX
SIZE_RANGES = {
    "truncation": (0, 500),
    "resolution": (1, 512),
    "theta_steps": (1, 100_000),
    "max_index": (0, 32),
    "cutoff": (0, 32),
    "vectors": (1, 100_000),
    "nodes": (1, 512),
}
#: most complex normals accretive may draw, vectors x (N + 1)^2: its largest
#: accepted run takes about 4 s, like most other commands' cap runs
ACCRETIVE_DRAWS_MAX = 125_000_000
#: the quadrature commands: the modes product each tabulates (min_nodes's
#: kind) and the RunConfig field that holds its top Hermite order
_QUADRATURE = {"biorth": ("gram", "max_index"), "norms": ("norms", "max_index"), "expand": ("expand", "cutoff")}


class RunConfig(NamedTuple):
    command: str = ""
    gamma: float = 0.5
    gamma_symbolic: bool = False
    truncation: int = 40
    theta_min: float = -1.4
    theta_max: float = 1.4
    theta_steps: int = 57
    re_min: float = -1.0
    re_max: float = 8.0
    im_min: float = -4.0
    im_max: float = 4.0
    resolution: int = 161
    cutoff: int = 4
    max_index: int = 6
    hbars: tuple = (0.2, 0.1, 0.01)
    nodes: int = 96
    points: tuple = ("-0.5", "-1+1i", "-2+3i", "-4")
    vectors: int = 1000
    seed: int = 0
    energy: float = 1.0
    summand: str = "sum"
    product: str = "biorth"
    out: str = ""
    format: str = ""

    def validate(self):
        if self.command not in COMMANDS:
            raise CliError(f"unknown command {self.command!r}")
        if self.gamma_symbolic and self.command != "verify-algebra":
            raise CliError("--gamma symbolic is only meaningful for verify-algebra")
        if not math.isfinite(self.gamma):
            raise CliError("gamma must be finite")
        for name, (low, high) in SIZE_RANGES.items():
            if not low <= getattr(self, name) <= high:
                raise CliError(f"{name} must be in [{low}, {high}]")
        if self.command == "accretive" and self.vectors * (self.truncation + 1) ** 2 > ACCRETIVE_DRAWS_MAX:
            raise CliError(f"accretive needs vectors * (truncation + 1)^2 <= {ACCRETIVE_DRAWS_MAX}")
        if self.command in _QUADRATURE:
            kind, field = _QUADRATURE[self.command]
            top = getattr(self, field)
            need = modes.min_nodes(kind, top)
            if self.nodes < need:
                raise CliError(f"{self.command} at {field} {top} needs nodes >= {need} for an exact rule")
        if not (abs(self.theta_min) < math.pi / 2 and abs(self.theta_max) < math.pi / 2):
            raise CliError("theta range must lie inside (-pi/2, pi/2)")
        # a finite span has finite ends, and linspace needs it to make finite points
        if not (math.isfinite(self.re_max - self.re_min) and math.isfinite(self.im_max - self.im_min)):
            raise CliError("grid range ends and spans must be finite")
        if self.seed < 0:
            raise CliError("seed must be >= 0")
        if not all(0 < float(h) < math.inf for h in self.hbars):
            raise CliError("hbar values must be positive and finite")
        if not 0 < self.energy < math.inf:
            raise CliError("energy must be positive and finite")
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed and not (name == "format" and value == ""):
                raise CliError(f"{name} must be one of {', '.join(allowed)}")
        for p in self.points:
            z = fock.z_from_string(str(p))
            if not (-math.inf < z.real < 0 and math.isfinite(z.imag)):
                raise CliError(f"accretivity sample {p!r} must be finite with Re z < 0")

    def as_params(self) -> dict:
        """Every field, in field order, with hbars and points as JSON lists."""
        return {**self._asdict(), "hbars": [float(h) for h in self.hbars], "points": [str(p) for p in self.points]}


# -- row builders ----------------------------------------------------------
#
# Each returns (header, columns), one 1-d array per header name, whose dtype
# (bool, int64, float64 or str) must match the Python type of its cells.


def _table(header: list[str], rows: list) -> tuple:
    """Columns of equal-length rows; a table with no rows gets empty floats."""
    return header, [np.array(col) for col in zip(*rows)] or [np.empty(0)] * len(header)


def _indexed(header: list[str], *tables: np.ndarray) -> tuple:
    """Columns of same-shape arrays: each index, then each array, C order."""
    shape = tables[0].shape
    return header, [*np.indices(shape).reshape(len(shape), -1), *(t.ravel() for t in tables)]


def _rows_verify(cfg: RunConfig):
    gamma = None if cfg.gamma_symbolic else cfg.gamma
    rows = [c.as_dict(gamma) for c in verify_identities()]
    return _table(list(rows[0]), [list(row.values()) for row in rows])


def _rows_spectrum(cfg: RunConfig):
    vals, closed = fock.spectrum_levels(cfg.truncation, cfg.gamma)
    # Python's abs per level: numpy's vectorized complex abs can differ in the last bit
    err = np.fromiter(map(abs, (vals - closed).tolist()), float, vals.size)
    columns = [np.arange(vals.size), vals.real, vals.imag, closed, err]
    return ["index", "re", "im", "closed_form", "abs_err"], columns


def _rows_numrange(cfg: RunConfig):
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps)
    boundary = fock.numerical_range_boundary(cfg.truncation, cfg.gamma, thetas)
    return ["theta", "E_numeric", "E_closed", "x", "y", "envelope_y"], list(boundary)


def _rows_pseudo(cfg: RunConfig):
    grid = fock.pseudospectrum(
        cfg.truncation, cfg.gamma, (cfg.re_min, cfg.re_max), (cfg.im_min, cfg.im_max), cfg.resolution
    )
    re, im = np.meshgrid(grid.re, grid.im)
    return ["re", "im", "sigma_min"], [re.ravel(), im.ravel(), grid.sigma_min.ravel()]


def _rows_biorth(cfg: RunConfig):
    # both --product values fold the couplings to 0 and give the same G (x) G
    g = modes.gram_matrix(cfg.gamma, cfg.max_index, cfg.nodes)
    return _indexed(["m", "n", "p", "q", "value"], np.einsum("mp,nq->mnpq", g, g))


def _rows_norms(cfg: RunConfig):
    return _indexed(["m", "n", "norm_sq"], modes.flat_norms(cfg.gamma, cfg.max_index, cfg.nodes))


def _rows_accretive(cfg: RunConfig):
    zs = [fock.z_from_string(p) for p in cfg.points]
    report = fock.accretivity_check(cfg.truncation, cfg.gamma, zs, n_vectors=cfg.vectors, seed=cfg.seed)
    rows = [["resolvent", z.real, z.imag, sig, bound, ok] for z, sig, bound, ok in report.rows]
    rows.append(
        ["rayleigh", report.rayleigh_min_x, report.rayleigh_max_hyper_excess, float(cfg.vectors), 0.0,
         report.rayleigh_ok]
    )
    return _table(["kind", "a", "b", "sigma_min_or_min_x", "bound_or_excess", "ok"], rows)


def _rows_wkb(cfg: RunConfig):
    summand = (
        wkb.sum_coordinate_summand() if cfg.summand == "sum" else wkb.difference_coordinate_summand()
    )
    rows = wkb.wkb_integrals(summand, cfg.energy, cfg.hbars)
    return _table(
        ["hbar", "I1", "I2", "I3"], [(r.hbar, r.right_norm, r.left_norm, r.cross_overlap) for r in rows]
    )


def _rows_expand(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal((cfg.cutoff + 1, cfg.cutoff + 1))
    coeffs /= np.linalg.norm(coeffs)
    result = modes.expand_amplitudes(coeffs, cfg.gamma, cfg.cutoff, cfg.nodes)
    err = np.abs(coeffs - result.coeffs)
    return _indexed(["m", "n", "c_true", "c_est", "abs_err"], coeffs, result.coeffs, err)


# -- the option table --------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its help text, its row builder, the RunConfig fields
    it reads (each set by the flag --field-name unless _FLAG_FIELDS says
    otherwise), its default output format, and (field, text) defaults that
    apply before the config file and the flags."""

    help: str
    rows: Callable[[RunConfig], tuple]
    options: tuple
    format: str = "csv"
    defaults: tuple = ()


COMMANDS = {
    "verify-algebra": Command(
        "exact operator-identity suite", _rows_verify, ("gamma",), "json", (("gamma", "symbolic"),)
    ),
    "spectrum": Command(
        "truncated eigenvalues vs closed-form levels", _rows_spectrum, ("gamma", "truncation")
    ),
    "numrange": Command(
        "numerical-range support energies and boundary", _rows_numrange,
        ("gamma", "truncation", "theta_min", "theta_max", "theta_steps"),
    ),
    "pseudo": Command(
        "sigma_min grid for pseudospectra", _rows_pseudo,
        ("gamma", "truncation", "re_min", "re_max", "im_min", "im_max", "resolution"),
    ),
    "biorth": Command(
        "pairwise eigenfunction inner products", _rows_biorth, ("gamma", "nodes", "max_index", "product")
    ),
    "norms": Command("squared norms of right eigenfunctions", _rows_norms, ("gamma", "nodes", "max_index")),
    "accretive": Command(
        "resolvent bound and numerical-range containment", _rows_accretive,
        ("gamma", "truncation", "seed", "points", "vectors"), "json",
    ),
    "wkb": Command(
        "semiclassical norm integrals over an hbar list", _rows_wkb, ("energy", "hbars", "summand")
    ),
    "expand": Command(
        "round-trip probability amplitudes of a seeded random state", _rows_expand,
        ("gamma", "nodes", "seed", "cutoff"),
    ),
}

#: options every command takes besides its own
_COMMON_OPTIONS = ("out", "format")

#: flags not spelled --field-name, with the fields each one sets
_FLAG_FIELDS = {"--res": ("resolution",), "--grid": ("re_min", "re_max", "im_min", "im_max")}
_FIELD_FLAG = {name: flag for flag, names in _FLAG_FIELDS.items() for name in names}

_HELP = {
    "--config": "key=value config file",
    "--out": "output file path",
    "--gamma": "coupling constant",
    "--truncation": "Fock truncation N",
    "--grid": "re_min,re_max,im_min,im_max",
    "--res": "grid resolution per axis",
    "--nodes": "quadrature nodes per axis",
    "--points": "semicolon-separated complex samples",
    "--hbars": "comma-separated hbar values",
}

_CHOICES = {"format": ("csv", "json"), "product": ("biorth", "physical"), "summand": ("sum", "diff")}

#: fields whose text is not parsed by the type of their default
_FIELD_PARSERS = {
    "hbars": lambda text: tuple(float(v) for v in text.split(",")),
    "points": lambda text: tuple(text.split(";")),
}


def _flags(spec: Command) -> dict:
    """Flag -> the RunConfig fields it sets, in the command's option order."""
    flags = {}
    for name in (*_COMMON_OPTIONS, *spec.options):
        flag = _FIELD_FLAG.get(name, "--" + name.replace("_", "-"))
        flags[flag] = _FLAG_FIELDS.get(flag, (name,))
    return flags


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with every command's subparser, or with only
    the command `only`.  The top level takes no option values, so once the
    first token names a command argparse hands every later token to that
    subparser and consults no other: a call that names its command gets the
    same parse and the same messages from its own subparser alone."""
    parser = argparse.ArgumentParser(
        prog="nhboson",
        description="Exact identities and spectral diagnostics for the "
        "coupled two-boson oscillator; emits CSV/JSON data files.",
    )
    parser.add_argument("--version", action="version", version=f"nhboson {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, spec in COMMANDS.items() if only is None else [(only, COMMANDS[only])]:
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--config", help=_HELP["--config"])
        for flag, names in _flags(spec).items():
            p.add_argument(flag, help=_HELP.get(flag), choices=_CHOICES.get(names[0]))
    return parser


def read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys use underscores."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"malformed config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _parse_field(name: str, text: str):
    """A field's value from its text, by _FIELD_PARSERS or else by the type
    of the field's default."""
    parse = _FIELD_PARSERS.get(name, type(RunConfig._field_defaults[name]))
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"cannot parse {name} value {text!r}") from exc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags > config file > the command's defaults > RunConfig defaults;
    flag and file texts go through the same per-field parser."""
    spec = COMMANDS[args.command]
    file_values = read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in RunConfig._fields:
            raise CliError(f"unknown config key {key!r}")
    texts = {**dict(spec.defaults), **file_values}
    for flag, names in _flags(spec).items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is None:
            continue
        parts = text.split(",") if len(names) > 1 else [text]
        if len(parts) != len(names):
            raise CliError(f"{flag} needs {','.join(names)}")
        texts.update(zip(names, parts))
    values = {}
    for name in (*_COMMON_OPTIONS, *spec.options):
        if name not in texts:
            continue
        if name == "gamma" and texts[name] == "symbolic":
            values["gamma_symbolic"] = True
        else:
            values[name] = _parse_field(name, texts[name])
    return RunConfig(args.command, **values)


# -- emission ---------------------------------------------------------------


#: rows formatted per CSV write, so the text held in memory is bounded by
#: this many rows whatever the table's length
CSV_CHUNK_ROWS = 65_536


def _quote(cell: str) -> str:
    """A str cell, quoted RFC 4180-style if it holds a comma, a quote or a line break."""
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell


#: a CSV cell's text by its column's dtype kind, floats apart; str for int columns
_CELL_FORMATS = {"b": ("false", "true").__getitem__, "U": _quote}


def _chunk_cells(chunk: np.ndarray):
    """The cell texts of one column's chunk of rows.  A float column calls
    repr once per distinct value, keyed by its bit pattern, so -0.0 and 0.0
    stay apart and the text is the per-cell repr's, byte for byte."""
    if chunk.dtype.kind != "f":
        return map(_CELL_FORMATS.get(chunk.dtype.kind, str), chunk.tolist())
    keys, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)[inverse].tolist()


def _write_csv(fh, header: list[str], columns: list[np.ndarray]) -> None:
    """The header line, then CSV_CHUNK_ROWS rows per write; a float column
    formats each distinct value of a chunk once (_chunk_cells)."""
    fh.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        cells = [_chunk_cells(col[lo : lo + CSV_CHUNK_ROWS]) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(fh, cfg: RunConfig, header: list[str], columns: list[np.ndarray]) -> None:
    # .tolist() gives Python bool, int, float and str, which json writes natively
    envelope = {
        "tool_version": __version__,
        "command": cfg.command,
        "params": cfg.as_params(),
        "rows": [dict(zip(header, row)) for row in zip(*(col.tolist() for col in columns))],
    }
    fh.write(json.dumps(envelope, indent=2) + "\n")


def emit(cfg: RunConfig, header: list[str], columns: list[np.ndarray]) -> str:
    fmt = cfg.format or COMMANDS[cfg.command].format
    if cfg.out:
        path = cfg.out
    else:
        outdir = os.environ.get(ENV_OUTDIR, ".")
        path = os.path.join(outdir, f"{cfg.command}.{fmt}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # a sibling file renamed into place: a write that fails leaves no artifact
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                _write_csv(fh, header, columns)
            else:
                _write_json(fh, cfg, header, columns)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


#: options whose values may start with '-', folded into --opt=value form
_DASH_VALUE_OPTS = ("--grid", "--points", "--hbars", "--theta-min", "--theta-max", "--gamma")


def _fold_dash_values(argv):
    out, it = [], iter(argv)
    for token in it:
        value = next(it, None) if token in _DASH_VALUE_OPTS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _fail(code: int, message: str) -> int:
    print(f"nhboson: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Exit codes: 0 artifact written; 2 bad input, or the artifact or the
    memory a run needs cannot be had; 3 the solver did not converge or the
    result is not finite (a NaN cell; +inf is a legal value)."""
    argv = _fold_dash_values(sys.argv[1:] if argv is None else list(argv))
    # no command, -h, --version or an unknown word: the full parser's usage,
    # help and invalid-choice message list every command
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
        cfg.validate()
    except (CliError, OSError, ValueError) as exc:
        return _fail(2, f"error: {exc}")
    spec = COMMANDS[cfg.command]
    if "truncation" in spec.options and abs(cfg.gamma) >= 1:
        print(
            f"nhboson: warning: |gamma| = {abs(cfg.gamma)} >= 1; closedness of the "
            "full operator is not guaranteed there, results are truncation-only",
            file=sys.stderr,
        )
    try:
        # a non-finite cell is reported below; numpy's warnings would only
        # repeat it on stderr.  Any other warning is one nhboson: line
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            try:
                header, columns = spec.rows(cfg)
            finally:
                for warning in caught:
                    print(f"nhboson: warning: {warning.message}", file=sys.stderr)
    except MemoryError as exc:
        return _fail(2, f"error: out of memory: {exc}")
    except fock.SolverConvergenceError as exc:
        return _fail(3, f"solver failed to converge: {exc}")
    except ArithmeticError as exc:
        return _fail(3, f"non-finite result: {exc!r}")
    if any(col.dtype.kind == "f" and np.isnan(col).any() for col in columns):
        return _fail(3, "non-finite result: NaN in the output rows")
    try:
        path = emit(cfg, header, columns)
    except OSError as exc:
        return _fail(2, f"error: cannot write the artifact: {exc}")
    print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
