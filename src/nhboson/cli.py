"""Data-emitting command line for the library.

Every run writes exactly one artifact file, either CSV with a fixed header
or a JSON envelope {tool_version, command, params, rows}.  Runs are
deterministic: identical configuration (including the seed) yields
byte-identical output, floats are written in shortest round-trip form, and
no timestamps or locale-dependent formatting are involved.

Configuration precedence: command-line flags > config file (key=value
lines) > built-in defaults.  The default output directory can be set with
the NHBOSON_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (loaded here, not inside the first draw)

from . import __version__, fock, modes, wkb
from .operators import identity_report_json, verify_identities

ENV_OUTDIR = "NHBOSON_OUTDIR"


class CliError(ValueError):
    pass


#: inclusive bounds of the size options.  The upper caps keep the largest
#: run within minutes and its arrays far inside numpy's limits: spectrum
#: grows as N^4, biorth writes (max_index + 1)^4 rows from one Hermite table,
#: norms and expand tabulate (max_index + 1) or (cutoff + 1) Hermite orders
#: on nodes^2 points, numrange and accretive grow linearly in theta_steps
#: and vectors
SIZE_RANGES = {
    "truncation": (0, 500),
    "resolution": (1, 512),
    "theta_steps": (1, 100_000),
    "max_index": (0, 32),
    "cutoff": (0, 32),
    "vectors": (1, 100_000),
    "nodes": (1, 512),
}
#: the commands whose sigma_min may go to LAPACK's SVD, which writes an error
#: to stdout once a block entry overflows; SVD_GAMMA_MAX keeps gamma^2 finite
_SVD_COMMANDS = ("pseudo", "accretive")
SVD_GAMMA_MAX = 1e150


@dataclass
class RunConfig:
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
        if self.command in _SVD_COMMANDS and not abs(self.gamma) <= SVD_GAMMA_MAX:
            raise CliError(f"{self.command} needs |gamma| <= {SVD_GAMMA_MAX:g}")
        for name, (low, high) in SIZE_RANGES.items():
            if not low <= getattr(self, name) <= high:
                raise CliError(f"{name} must be in [{low}, {high}]")
        if not (abs(self.theta_min) < math.pi / 2 and abs(self.theta_max) < math.pi / 2):
            raise CliError("theta range must lie inside (-pi/2, pi/2)")
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise CliError("grid range ends must be finite")
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
        d = asdict(self)
        d["hbars"] = [float(h) for h in self.hbars]
        d["points"] = [str(p) for p in self.points]
        return d

    @classmethod
    def from_params(cls, params: dict) -> "RunConfig":
        kwargs = dict(params)
        kwargs["hbars"] = tuple(float(h) for h in kwargs.get("hbars", ()))
        kwargs["points"] = tuple(str(p) for p in kwargs.get("points", ()))
        return cls(**kwargs)


# -- row builders ----------------------------------------------------------


def _rows_verify(cfg: RunConfig):
    checks = verify_identities()
    gamma = None if cfg.gamma_symbolic else cfg.gamma
    rows = json.loads(identity_report_json(checks, gamma=gamma))
    header = list(rows[0].keys()) if rows else []
    return header, [[row[k] for k in header] for row in rows]


def _rows_spectrum(cfg: RunConfig):
    rows = fock.spectrum_rows(cfg.truncation, cfg.gamma)
    return ["index", "re", "im", "closed_form", "abs_err"], [
        [i, v.real, v.imag, closed, err] for i, v, closed, err in rows
    ]


def _rows_numrange(cfg: RunConfig):
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps)
    pts = fock.numerical_range_boundary(cfg.truncation, cfg.gamma, thetas)
    return ["theta", "E_numeric", "E_closed", "x", "y", "envelope_y"], [
        [p.theta, p.e_numeric, p.e_closed, p.x, p.y, p.envelope_y] for p in pts
    ]


def _rows_pseudo(cfg: RunConfig):
    grid = fock.pseudospectrum(
        cfg.truncation, cfg.gamma, (cfg.re_min, cfg.re_max), (cfg.im_min, cfg.im_max), cfg.resolution
    )
    rows = []
    for iy, imv in enumerate(grid.im):
        for ix, rev in enumerate(grid.re):
            rows.append([rev, imv, grid.sigma_min[iy, ix]])
    return ["re", "im", "sigma_min"], rows


def _rows_biorth(cfg: RunConfig):
    # both --product values fold the couplings to 0 and give the same G (x) G
    g = modes.gram_matrix(cfg.gamma, cfg.max_index, cfg.nodes)
    values = np.einsum("mp,nq->mnpq", g, g)
    return ["m", "n", "p", "q", "value"], [[*idx, v] for idx, v in np.ndenumerate(values)]


def _rows_norms(cfg: RunConfig):
    table = modes.flat_norms(cfg.gamma, cfg.max_index, cfg.nodes)
    return ["m", "n", "norm_sq"], [[*idx, v] for idx, v in np.ndenumerate(table)]


def _rows_accretive(cfg: RunConfig):
    zs = [fock.z_from_string(p) for p in cfg.points]
    report = fock.accretivity_check(cfg.truncation, cfg.gamma, zs, n_vectors=cfg.vectors, seed=cfg.seed)
    rows = [["resolvent", z.real, z.imag, sig, bound, ok] for z, sig, bound, ok in report.rows]
    rows.append(
        ["rayleigh", report.rayleigh_min_x, report.rayleigh_max_hyper_excess, float(cfg.vectors), 0.0,
         report.rayleigh_ok]
    )
    return ["kind", "a", "b", "sigma_min_or_min_x", "bound_or_excess", "ok"], rows


def _rows_wkb(cfg: RunConfig):
    summand = (
        wkb.sum_coordinate_summand() if cfg.summand == "sum" else wkb.difference_coordinate_summand()
    )
    rows = wkb.wkb_integrals(summand, cfg.energy, cfg.hbars)
    return ["hbar", "I1", "I2", "I3"], [
        [r.hbar, r.right_norm, r.left_norm, r.cross_overlap] for r in rows
    ]


def _rows_expand(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal((cfg.cutoff + 1, cfg.cutoff + 1))
    coeffs /= np.linalg.norm(coeffs)
    psi = modes.mode_superposition(coeffs, cfg.gamma)
    result = modes.expand_amplitudes(psi, cfg.gamma, cfg.cutoff, cfg.nodes)
    err = np.abs(coeffs - result.coeffs)
    return ["m", "n", "c_true", "c_est", "abs_err"], [
        [m, n, coeffs[m, n], result.coeffs[m, n], err[m, n]] for m, n in np.ndindex(coeffs.shape)
    ]


# -- the option table --------------------------------------------------------


@dataclass(frozen=True)
class Command:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhboson",
        description="Exact identities and spectral diagnostics for the "
        "coupled two-boson oscillator; emits CSV/JSON data files.",
    )
    parser.add_argument("--version", action="version", version=f"nhboson {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, spec in COMMANDS.items():
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


def _set_field(cfg: RunConfig, name: str, text: str) -> None:
    if name == "gamma" and text == "symbolic":
        cfg.gamma_symbolic = True
        return
    parse = _FIELD_PARSERS.get(name, type(getattr(RunConfig, name)))
    try:
        setattr(cfg, name, parse(text))
    except ValueError as exc:
        raise CliError(f"cannot parse {name} value {text!r}") from exc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags > config file > the command's defaults > RunConfig defaults;
    flag and file texts go through the same per-field parser."""
    spec = COMMANDS[args.command]
    file_values = read_config_file(args.config) if args.config else {}
    known = {f.name for f in fields(RunConfig)}
    for key in file_values:
        if key not in known:
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
    cfg = RunConfig(command=args.command)
    for name in (*_COMMON_OPTIONS, *spec.options):
        if name in texts:
            _set_field(cfg, name, texts[name])
    return cfg


# -- emission ---------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def emit(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    fmt = cfg.format or COMMANDS[cfg.command].format
    if cfg.out:
        path = cfg.out
    else:
        outdir = os.environ.get(ENV_OUTDIR, ".")
        path = os.path.join(outdir, f"{cfg.command}.{fmt}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        envelope = {
            "tool_version": __version__,
            "command": cfg.command,
            "params": cfg.as_params(),
            "rows": [
                {key: _jsonable(v) for key, v in zip(header, row)} for row in rows
            ],
        }
        payload = json.dumps(envelope, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
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


def _has_nan(rows) -> bool:
    return any(isinstance(v, (float, np.floating)) and math.isnan(v) for row in rows for v in row)


def main(argv=None) -> int:
    """Exit codes: 0 artifact written; 2 bad input, or the artifact or the
    memory a run needs cannot be had; 3 the solver did not converge or the
    result is not finite (a NaN cell; +inf is a legal value)."""
    parser = _build_parser()
    args = parser.parse_args(_fold_dash_values(sys.argv[1:] if argv is None else list(argv)))
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
        # repeat it on stderr
        with np.errstate(all="ignore"):
            header, rows = spec.rows(cfg)
    except MemoryError as exc:
        return _fail(2, f"error: out of memory: {exc}")
    except fock.SolverConvergenceError as exc:
        return _fail(3, f"solver failed to converge: {exc}")
    except ArithmeticError as exc:
        return _fail(3, f"non-finite result: {exc!r}")
    if _has_nan(rows):
        return _fail(3, "non-finite result: NaN in the output rows")
    try:
        path = emit(cfg, header, rows)
    except OSError as exc:
        return _fail(2, f"error: cannot write the artifact: {exc}")
    print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
