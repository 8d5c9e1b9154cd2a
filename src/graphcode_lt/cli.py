"""Command-line surface: batch analysis, sweeps, searches, data emission.

Every run resolves its arguments into a flat config dict whose SHA-256
prefix is embedded in all emitted artifacts, and the config itself is
written beside any output file, so a results file always identifies the
exact invocation that produced it.  Identical config and seed give
byte-identical output.

Exit codes: 0 success, 1 check failure (mc-check disagreement), 2 parse
errors (malformed graph6 or candidate files), 3 validation errors (bad
values or missing parameters), 4 resource limits (sizes the exact
engines refuse).  A star or tree --graph past 14 code qubits exits 4
before the code is built, and so does a search over n:<k> whose
candidates would have more than 14 code qubits (k > 15), before any
class is enumerated.  A start:stop:step grid (--eta-grid, --lambda-grid,
--pfail) of more than 10^6 points exits 4 before any point is made, and
so does a concat --depth past 1000 layers.

Rows stream: the six grid commands, sweep --eta-grid, sweep
--lambda-grid, fusion, rgs, concat and fbqc, read their grid in blocks
of up to 1024 points, compute a block's rows together, and write them
before reading the next, so memory does not grow with the row count, and
nothing reaches stdout before the first row exists: a run that fails in
its first block prints nothing, and one that fails later exits non-zero
after the rows of the blocks already finished, none of the failing
block's.  An --out file and its sidecar are written under temporary
names beside it and moved into place when complete, so a failed or
killed run leaves no truncated artifact; an --out that cannot be
written exits 3 before anything is computed.

GRAPHCODE_LT_CACHE names a directory for the checkpoints of search runs,
from which an interrupted search resumes.  Unset, nothing is written;
set to a path that cannot be made a directory, search exits 3.
Decision trees are rebuilt in each run; tree_*.json files that older
versions wrote there are never read and can be deleted.

search --threads is an upper bound on its worker processes: the pool is
capped at the number of pending candidates and of CPUs, and a cap of one
scores in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .codes import (
    GraphCode,
    InvalidCodeError,
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from .graphs import Graph
from .polynomials import break_even
from .losstree import (
    MAX_TRIALS,
    load_or_build,
    monte_carlo_decode,
    success_polynomial,
    total_polynomial,
)
from .errordecode import depolarizing, logical_flip_rates
from .modular import LayerStack, logical_transmission, unit_F
from .fusion import logical_fusion
from .apps import fbqc_loss_threshold, rgs_link_probability
from .search import (
    OBJECTIVE_KINDS,
    Objective,
    enumerate_candidates,
    optimize,
    read_candidates,
)
from .opsets import ResourceLimitError, check_exhaustive
from .pauli import BASES

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4

TOOL = "graphcode-lt"
CACHE_ENV = "GRAPHCODE_LT_CACHE"

# The most points a start:stop:step grid may have.  Points are made at
# about 1 us each, so a tiny step would otherwise hang, then run out of
# memory.
GRID_LIMIT = 10 ** 6

# The most grid points evaluated together: every grid command reads its
# grid in blocks of this many (``_emit_grid``), while the rows still
# stream one by one.
BLOCK = 1024

# The deepest concat stack.  Its qubit count is the unit's to the power
# of the depth: at 14 qubits and this depth it has 1,147 digits, and far
# deeper ones pass Python's 4,300-digit limit on printing an integer.
DEPTH_LIMIT = 1000


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# -- argument resolution -----------------------------------------------------------

_LIBRARY = {
    "pentagon": pentagon_code,
    "decorated-pentagon": decorated_pentagon_code,
    "cube": cube_code,
    "branched-chain": branched_chain_code,
    "shor22": shor_22_code,
}

# --basis of tree and mc-check -> the tree kind of ``load_or_build``
_TREE_KINDS = {"X": "X", "Y": "Y", "Z": "Z", "A": "arbitrary",
               "arbitrary": "arbitrary"}


def resolve_code(graph: str, input_vertex: int) -> GraphCode:
    """A library name, star<N>, tree:<b1,b2,..>, or a graph6 string.

    Every command served here refuses codes past ``EXHAUSTIVE_LIMIT``
    qubits.  A star or tree name that short could ask for millions, so its
    qubit count is checked before the code is built (building one takes
    time and memory in proportion to its size); a graph6 string already
    grows with the square of its size.  A named code has its input at
    vertex 0, so any other ``input_vertex`` is refused with it.
    """
    star = re.fullmatch(r"star(\d+)", graph)
    if input_vertex and (graph in _LIBRARY or star or graph.startswith("tree:")):
        raise CliError(EXIT_VALIDATION, f"--input-vertex {input_vertex} needs "
                       f"a graph6 --graph: {graph!r} has its input at vertex 0")
    if graph in _LIBRARY:
        return _LIBRARY[graph]()
    if star:
        try:
            n = int(star[1])
            check_exhaustive(n)
            return star_code(n)
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad star size in {graph!r}")
    if graph.startswith("tree:"):
        try:
            branching = [int(b) for b in graph[5:].split(",")]
            qubits, level = 0, 1
            for b in branching:
                level *= max(b, 0)
                qubits += level
            check_exhaustive(qubits)
            return tree_code(branching)
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad tree branching in {graph!r}")
    try:
        g = Graph.from_graph6(graph)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"malformed graph6 {graph!r}: {exc}")
    try:
        return GraphCode(g, input_vertex)
    except InvalidCodeError as exc:
        raise CliError(EXIT_VALIDATION, str(exc))


class _Range:
    """The points of a start:stop:step grid, each made as it is read: the
    k-th is round(start + k * step, 12).  Iteration reads them by index
    and ends at the ``IndexError`` of the index range."""

    def __init__(self, start: float, step: float, count: int):
        self.start, self.step, self.ks = start, step, range(count)

    def __getitem__(self, i: int) -> float:
        return round(self.start + self.ks[i] * self.step, 12)


def parse_grid(text: str, name: str):
    """Comma-separated values as a list, or start:stop:step inclusive of
    the stop as a ``_Range``, whose points are not stored."""
    text = text.strip()
    if not text:
        raise CliError(EXIT_VALIDATION, f"{name} is empty")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_VALIDATION,
                           f"{name} range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"{name} has non-numeric entries")
        if not (step > 0 and stop >= start):
            raise CliError(EXIT_VALIDATION, f"{name} range is not increasing")
        # about floor((stop + 1e-12 - start) / step) + 1 points; the
        # negated test also refuses an infinite or NaN count
        bound = stop + 1e-12
        if not (bound - start) / step < GRID_LIMIT:
            raise ResourceLimitError(
                f"{name} range {text!r} has more than {GRID_LIMIT} points")
        # start + k * step never decreases in k, so the points are those
        # below the first k that passes the bound, found from the estimate
        count = int((bound - start) / step)
        while start + count * step <= bound:
            count += 1
        while start + (count - 1) * step > bound:
            count -= 1
        return _Range(start, step, count)
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"{name} has non-numeric entries")
    if not values:
        raise CliError(EXIT_VALIDATION, f"{name} is empty")
    return values


def check_unit(value: float, name: str, hi: float = 1.0):
    if not 0.0 <= value <= hi:
        raise CliError(EXIT_VALIDATION,
                       f"{name} must lie in [0.0, {hi}], got {value}")
    return value


# -- artifact emission -------------------------------------------------------------


def config_hash(config: dict) -> str:
    # The hash identifies the computation; where the artifact lands and
    # how many workers compute it must not change it, or reruns to a new
    # path or at another --threads would never match.
    hashed = {k: v for k, v in config.items() if k not in ("out", "threads")}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _stamp(config: dict) -> dict:
    """The tool, version and config that identify an artifact."""
    return {"tool": TOOL, "version": __version__,
            "config_hash": config_hash(config), "config": config}


@contextlib.contextmanager
def _write(out: str | None, config: dict):
    """The stream an artifact is written to: stdout, or a temporary file
    beside ``out`` that, with its config sidecar, replaces ``out`` only
    once the artifact is complete.  A failed run removes the temporary
    file; an unwritable ``out`` is a validation error (exit 3) when the
    stream is opened."""
    if not out:
        yield sys.stdout
        return
    sidecar = out + ".config.json"
    tmp, side_tmp = (f"{path}.{os.getpid()}.tmp" for path in (out, sidecar))
    try:
        fh = open(tmp, "w", encoding="ascii")
    except OSError as exc:
        raise CliError(EXIT_VALIDATION,
                       f"cannot write --out {out!r}: {exc.strerror}")
    try:
        with fh:
            yield fh
        with open(side_tmp, "w", encoding="ascii") as side:
            side.write(json.dumps(_stamp(config), sort_keys=True, indent=1)
                       + "\n")
        os.replace(side_tmp, sidecar)
        os.replace(tmp, out)
    finally:
        for path in (tmp, side_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


# Any JSON value at the depth and indent of ``json.dumps(payload,
# sort_keys=True, indent=1)``; with no indent set, the encoder is the C
# one.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": "))


def _json_value(v) -> str:
    """``v`` as the C JSON encoder writes it: a finite float by
    ``float.__repr__`` and an int (not a bool) by ``int.__repr__``, as
    that encoder does, and any other value through it."""
    if type(v) is float and v - v == 0.0:  # NaN and +-inf give NaN
        return float.__repr__(v)
    if type(v) is int:
        return int.__repr__(v)
    return _ROW_ENCODER.encode(v)


def emit_rows(header: list[str], rows, config: dict, out: str | None,
              fmt: str):
    """Write ``rows``, an iterable that makes them, as CSV or JSON.

    Each row is written as soon as it is made, so memory does not grow
    with the row count, and nothing is written before the first row
    exists.  The JSON text is that of ``json.dumps(payload,
    sort_keys=True, indent=1)``: its head and tail come from the payload
    with no rows, and each row fills one ``%`` template of the sorted
    header's keys with its values' ``_json_value`` texts.
    """
    if fmt == "csv":
        head = (f"# {TOOL} {__version__} config={config_hash(config)}\n"
                + ",".join(header) + "\n")
        sep = close = tail = ""

        def line(row):
            return ",".join(_cell(v) for v in row) + "\n"
    else:
        empty = json.dumps(dict(_stamp(config), result=[]), sort_keys=True,
                           indent=1)
        head, _, tail = empty.rpartition('"result": []')
        head += '"result": ['
        tail = "]" + tail + "\n"
        sep, close = ",", "\n "
        order = sorted(range(len(header)), key=header.__getitem__)
        template = "\n  {\n   " + ",\n   ".join(
            _ROW_ENCODER.encode(header[i]).replace("%", "%%") + ": %s"
            for i in order) + "\n  }"

        def line(row):
            return template % tuple([_json_value(row[i]) for i in order])
    with _write(out, config) as sink:
        first = True
        for row in rows:
            sink.write((head if first else sep) + line(row))
            first = False
        sink.write((head if first else close) + tail)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# -- subcommands -------------------------------------------------------------------


def cmd_analyze(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)

    def rows():
        for kind in ("X", "Y", "Z", "arbitrary"):
            poly = success_polynomial(load_or_build(code, kind))
            be = break_even(poly)
            yield [kind, poly.to_string(), "" if be is None else be]

    if args.format is None and args.out is None:
        for kind, text, be in rows():
            tail = "no break-even" if be == "" else f"break-even {be:.6f}"
            print(f"{kind}: {text}  ({tail})")
        return EXIT_OK
    emit_rows(["basis", "polynomial", "break_even"], rows(), config,
              args.out, args.format or "csv")
    return EXIT_OK


def cmd_tree(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)
    with _write(args.out, config) as sink:
        tree = load_or_build(code, _TREE_KINDS[args.basis])
        payload = dict(_stamp(config), result=json.loads(tree.to_json()))
        sink.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _unit_grid(grid: str | None, name: str, hi: float = 1.0, point=None):
    """The points of ``--<name>-grid`` ``grid``, each checked to lie in
    [0, hi] before any is used: a comma list entry by entry, a range at
    its two ends (its points never decrease).  With no grid, the one
    point ``--<name>`` ``point``."""
    if grid is None:
        if point is None:
            raise CliError(EXIT_VALIDATION, f"need --{name} or --{name}-grid")
        return [check_unit(point, f"--{name}", hi=hi)]
    points = parse_grid(grid, f"--{name}-grid")
    ends = points if isinstance(points, list) else (points[0], points[-1])
    for v in ends:
        check_unit(v, f"--{name}-grid entry", hi=hi)
    return points


def _emit_grid(args, config, header: list[str], points, columns) -> int:
    """Write one row per point of grid ``points`` under ``header``.

    The grid is read in float arrays of up to ``BLOCK`` points, and
    ``columns(block)`` gives a block's columns in ``header`` order, each
    an array or a sequence of one value per point.  It is called only
    once the output is open, so an unwritable --out exits before any
    engine runs, and its rows are written before the next block is read.
    """
    def rows():
        grid = iter(points)
        while block := list(itertools.islice(grid, BLOCK)):
            yield from zip(*(np.asarray(column).tolist()
                             for column in columns(np.array(block))))

    emit_rows(header, rows(), config, args.out, args.format or "csv")
    return EXIT_OK


def cmd_sweep(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)
    if args.eta_grid is not None:
        def losses(etas):
            return [etas, *(1.0 - unit_F(code, b).evaluate(etas) for b in BASES)]

        return _emit_grid(args, config, ["eta", "loss_x", "loss_y", "loss_z",
                                         "loss_arbitrary"],
                          _unit_grid(args.eta_grid, "eta"), losses)
    if args.lambda_grid is None:
        raise CliError(EXIT_VALIDATION,
                       "sweep needs --eta-grid (loss) or --lambda-grid (error)")

    def flips(lams):
        rates = np.stack(depolarizing(lams), axis=1)
        return [lams, *logical_flip_rates(code, rates).T]

    return _emit_grid(args, config, ["lambda", "flip_x", "flip_y", "flip_z"],
                      _unit_grid(args.lambda_grid, "lambda", hi=1.0 / 3.0),
                      flips)


def cmd_fusion(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)

    def outcomes(etas):
        r = logical_fusion(code, args.pfail, etas,
                           adaptive=args.mode != "transversal")
        # both parities are erased alike, so erasure_zz repeats erasure_xx
        erasure = r.erasure_xx
        return [etas, r.p_success, r.p_fail_logical, r.p_loss_logical,
                erasure, erasure]

    return _emit_grid(args, config, ["eta", "p_success", "p_fail_logical",
                                     "p_loss_logical", "erasure_xx", "erasure_zz"],
                      _unit_grid(args.eta_grid, "eta", point=args.eta),
                      outcomes)


def cmd_concat(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)
    if args.depth < 1:
        raise CliError(EXIT_VALIDATION, f"--depth must be >= 1, got {args.depth}")
    if args.depth > DEPTH_LIMIT:
        raise ResourceLimitError(
            f"--depth {args.depth} is past the limit of {DEPTH_LIMIT} layers")

    def transmissions(etas):
        stack = LayerStack([code] * args.depth, args.mode, etas)
        r = logical_transmission(stack)
        return [etas, *(r[b] for b in BASES), [stack.qubit_count] * len(etas)]

    return _emit_grid(args, config, ["eta", "x", "y", "z", "arbitrary", "qubits"],
                      _unit_grid(args.eta_grid, "eta", point=args.eta),
                      transmissions)


def cmd_rgs(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)
    if args.depth < 1:
        raise CliError(EXIT_VALIDATION, f"--depth must be >= 1, got {args.depth}")
    # p_end_to_end raises p_link to a float power of the depth
    if args.depth > sys.float_info.max:
        raise CliError(EXIT_VALIDATION, "--depth is past the float range "
                       f"(at most {sys.float_info.max:g})")

    def links(etas):
        p_link = rgs_link_probability(code, etas, args.pfail,
                                      args.mode != "transversal").tolist()
        return [1.0 - etas, p_link, [p ** args.depth for p in p_link]]

    return _emit_grid(args, config, ["ell", "p_link", "p_end_to_end"],
                      _unit_grid(args.eta_grid, "eta", point=args.eta), links)


def cmd_fbqc(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)

    def thresholds(pfails):
        return [pfails, [fbqc_loss_threshold(code, pf, args.mode != "transversal")
                         for pf in pfails.tolist()]]

    return _emit_grid(args, config, ["p_fail", "loss_threshold"],
                      parse_grid(str(args.pfail), "--pfail"), thresholds)


def cmd_search(args, config) -> int:
    if args.threads < 1:
        raise CliError(EXIT_VALIDATION,
                       f"--threads must be >= 1, got {args.threads}")
    objective = Objective(args.kind, eta=args.eta if args.eta is not None else 0.70,
                          p_fail=args.pfail,
                          adaptive=args.mode != "transversal")
    checkpoint = None
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(EXIT_VALIDATION, f"{CACHE_ENV}={cache_dir!r} is not "
                           f"a usable directory: {exc.strerror}")
        checkpoint = os.path.join(
            cache_dir, f"search_{config_hash(config)}.ckpt")
    source = args.graph
    # the candidates stream: the file is opened and the first candidate
    # made only once the output is open
    with _write(args.out, config) as sink:
        if source.startswith("n:"):
            try:
                n_total = int(source[2:])
            except ValueError:
                raise CliError(EXIT_PARSE, f"bad candidate size {source!r}")
            candidates = enumerate_candidates(n_total)
        else:
            try:
                candidates = read_candidates(source)
            except OSError as exc:
                raise CliError(EXIT_VALIDATION, f"cannot read candidate "
                               f"file {source!r}: {exc.strerror}")
        try:
            result = optimize(objective, candidates, workers=args.threads,
                              checkpoint=checkpoint)
        except ValueError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        # ranking needs every score, so the records go out together
        sink.write(json.dumps(_stamp(config), sort_keys=True) + "\n"
                   + result.to_jsonl())
    return EXIT_OK


def cmd_mc_check(args, config) -> int:
    code = resolve_code(args.graph, args.input_vertex)
    eta = check_unit(args.eta if args.eta is not None else 0.9, "--eta")
    if args.trials < 1:
        raise CliError(EXIT_VALIDATION, f"--trials must be >= 1, got {args.trials}")
    # the tally is one int64 multinomial draw
    if args.trials > MAX_TRIALS:
        raise CliError(EXIT_VALIDATION, f"--trials must be at most {MAX_TRIALS}")
    tree = load_or_build(code, _TREE_KINDS[args.basis])
    conserved = total_polynomial(tree).eta_coefficients() == {0: 1}
    exact = success_polynomial(tree).evaluate(eta)
    mc = monte_carlo_decode(tree, eta, args.trials, seed=args.seed)
    # the standard error the exact value predicts: a sample's own is 0
    # when every trial agrees, however far it lies from the exact value
    stderr = math.sqrt(max(exact * (1.0 - exact), 0.0) / args.trials)
    ok = conserved and abs(mc - exact) <= 4.0 * stderr + 1e-15
    print(f"{'PASS' if ok else 'FAIL'} exact={exact:.6f} "
          f"mc={mc:.6f} stderr={stderr:.6f} "
          f"conservation={'ok' if conserved else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK


# -- wiring ------------------------------------------------------------------------


def _add_graph(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True,
                   help="library name, star<N>, tree:<b,..>, or graph6")
    p.add_argument("--input-vertex", type=int, default=0)


def _add_common(p: argparse.ArgumentParser):
    """The code and the output options of a subcommand that emits rows."""
    _add_graph(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)


def _add_eta_grid(p: argparse.ArgumentParser, other: str, **kwargs):
    """``--eta-grid`` and ``other``, of which the command reads only one:
    giving both is a parse error, not a silently dropped flag."""
    group = p.add_mutually_exclusive_group()
    group.add_argument(other, default=None, **kwargs)
    group.add_argument("--eta-grid", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog=TOOL, description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version",
                     version=f"{TOOL} {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="polynomials and break-even points")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tree", help="compiled decision tree as JSON")
    _add_graph(p)
    p.add_argument("--out", default=None)
    p.add_argument("--basis", choices=_TREE_KINDS, default="arbitrary")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("sweep", help="loss or error grids as CSV")
    _add_common(p)
    _add_eta_grid(p, "--lambda-grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fusion", help="logical fusion outcome probabilities")
    _add_common(p)
    p.add_argument("--pfail", type=float, default=0.5)
    _add_eta_grid(p, "--eta", type=float)
    p.add_argument("--mode", choices=("adaptive", "transversal"),
                   default="adaptive")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("concat", help="layered-stack logical transmission")
    _add_common(p)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--mode", choices=("cascaded", "concatenated"),
                   default="concatenated")
    _add_eta_grid(p, "--eta", type=float)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("rgs", help="repeater link success probabilities")
    _add_common(p)
    p.add_argument("--pfail", type=float, default=0.5)
    _add_eta_grid(p, "--eta", type=float)
    p.add_argument("--depth", type=int, default=1,
                   help="number of stations in the chain")
    p.add_argument("--mode", choices=("adaptive", "transversal"),
                   default="adaptive")
    p.set_defaults(func=cmd_rgs)

    p = sub.add_parser("fbqc", help="fusion-network loss thresholds")
    _add_common(p)
    p.add_argument("--pfail", default="0.5",
                   help="single value or comma list")
    p.add_argument("--mode", choices=("adaptive", "transversal"),
                   default="adaptive")
    p.set_defaults(func=cmd_fbqc)

    p = sub.add_parser("search", help="rank candidate codes by an objective")
    p.add_argument("kind", choices=OBJECTIVE_KINDS)
    p.add_argument("--graph", required=True,
                   help="n:<vertices> to generate, or a candidate file")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--pfail", type=float, default=0.5)
    p.add_argument("--mode", choices=("adaptive", "transversal"),
                   default="adaptive")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("mc-check", help="Monte Carlo versus exact polynomial")
    _add_graph(p)
    p.add_argument("--basis", choices=_TREE_KINDS, default="arbitrary")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--trials", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mc_check)

    return top


def resolved_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = resolved_config(args)
    try:
        return args.func(args, config)
    except CliError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ResourceLimitError as exc:
        print(f"{TOOL}: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
