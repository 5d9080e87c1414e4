"""JSON spec files: groups, curves, representations, quotient reps.

Schemas (all matrices are row-major arrays of element strings like
"(t^2 + 1)/(t + 1)"):

group:  {"name", "table": [[...]], "labels": [...], "generators": [...]}
        or {"builtin": "cyclic"|"dihedral"|"symmetric"|"trivial", "n": int}
curve:  {"components": [{"id", "branches": [...]}],
         "nodes": [{"id", "ends": [[comp, branch], [comp, branch]]}]}
rep:    {"p", "rank", "curve": <curve|path>, "z_images": [<matrix>, ...],
         "factors": [{"group": <group|path>, "gen_images": [<matrix>, ...]}
                     or {"group": ..., "images": [<matrix per element>]}]}
fq:     {"p", "rank", "source_groups": [<group|path>, ...],
         "quotient": <group|path>, "z_to": [...], "factor_to": [[...], ...],
         "hom": [<matrix per element>] or "hom_gen_images": [<matrix>, ...]}
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from os import PathLike
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SpecParseError

if TYPE_CHECKING:  # the loaders that build these import them when they run
    from .curves import NodalCurve
    from .field import FunctionField, MatrixK
    from .groups import FiniteGroup
    from .reps import ContinuousRep, FiniteQuotientRep


def _load_obj(source, kind: str, base_dir: Path | None = None):
    """The object of a spec given inline or by the path of a JSON file; nested
    file references resolve relative to the referencing file."""
    obj = source
    if isinstance(source, (str, PathLike)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            obj, base_dir = json.loads(path.read_text()), path.resolve().parent
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
            raise SpecParseError(f"cannot read spec file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecParseError(f"a {kind} spec must be a JSON object or a file path "
                             f"string, got {obj!r:.60}")
    return obj, base_dir


def matrix_from_json(field: FunctionField, rows, rank: int | None = None) -> MatrixK:
    """Matrix from rows of element strings; a given rank asks for rank x rank."""
    from .field import MatrixK, rf_from_string

    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise SpecParseError(f"a matrix must be a list of rows, got {rows!r}")
    for row in rows:
        for e in row:
            if type(e) is not str:
                raise SpecParseError(f"matrix entry {e!r} is not a string")
    try:
        M = MatrixK(field, tuple(tuple(rf_from_string(field, e) for e in row) for row in rows))
    except Exception as exc:
        raise SpecParseError(f"bad matrix literal: {exc}") from exc
    if rank is not None and (M.rows, M.cols) != (rank, rank):
        raise SpecParseError(
            f"a {M.rows}x{M.cols} matrix does not match the declared rank {rank}")
    return M


@contextmanager
def _spec(kind: str):
    """The loaders' one error boundary: a SpecParseError passes through, a
    missing key reads "bad <kind> spec: missing key 'k'", a value of the
    wrong type or range "bad <kind> spec", and any other failure while
    building "invalid <kind>", so no malformed spec ends in a traceback."""
    try:
        yield
    except SpecParseError:
        raise
    except KeyError as exc:
        raise SpecParseError(f"bad {kind} spec: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise SpecParseError(f"bad {kind} spec: {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"invalid {kind}: {exc}") from exc


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, and not a count
        raise SpecParseError(f"{what} must be an integer, got {value!r}")
    return value


# Loading a group builds its m x m table and checks associativity on the
# generator columns in m^2 |S| steps, or m^3 when a spec names no generators
# and every element is one, so m is worked out from the spec and refused past
# this budget before anything is built.  120 admits S_5.
MAX_GROUP_ORDER = 120


def _check_order(order: int, what: str) -> None:
    if order > MAX_GROUP_ORDER:
        raise SpecParseError(f"{what} has order above the budget of {MAX_GROUP_ORDER}")


def _builtin_order(kind, n: int) -> int:
    """|G| of a builtin spec (or a lower bound past the budget); n! is
    computed only for n within the budget."""
    if kind == "dihedral":
        return 2 * n
    if kind == "symmetric":
        return math.factorial(n) if 0 <= n <= MAX_GROUP_ORDER else n
    return n if kind == "cyclic" else 1


def load_group(source, base_dir: Path | None = None) -> FiniteGroup:
    from .groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group, trivial_group

    obj, _ = _load_obj(source, "group", base_dir)
    with _spec("group"):
        if "builtin" in obj:
            kind = obj["builtin"]
            n = _json_int(obj.get("n", 1), "builtin group size n")
            _check_order(_builtin_order(kind, n), f"builtin {kind} group with n = {n}")
            if kind == "cyclic":
                return cyclic_group(n)
            if kind == "dihedral":
                return dihedral_group(n)
            if kind == "symmetric":
                return symmetric_group(n)
            if kind == "trivial":
                return trivial_group()
            raise SpecParseError(f"unknown builtin group {kind!r}")
        table = obj["table"]
        _check_order(len(table), f"a table of {len(table)} rows")
        order = obj.get("order", len(table))
        generators = obj.get("generators")
        name = obj.get("name", "G")
        labels = obj.get("labels")
        ints = [order, *(x for row in table for x in row), *(generators or ())]
        if any(type(x) is not int for x in ints):
            raise ValueError("table entries, order and generators must be integers")
        if not isinstance(name, str):
            raise ValueError(f"group name must be a string, got {name!r}")
        if labels is not None and (type(labels) is not list
                                   or any(type(s) is not str for s in labels)):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        if order != len(table):
            raise ValueError("declared order does not match the table size")
        return FiniteGroup.from_table(table, labels=labels, name=name,
                                      generators=generators)


def _json_str(value, what: str) -> str:
    if type(value) is not str:
        raise SpecParseError(f"{what} must be a string, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise SpecParseError(f"{what} must be a list, got {value!r}")
    return value


def _node_end(end) -> tuple[str, str]:
    if type(end) is not list or len(end) != 2:
        raise SpecParseError(f"a node end must be a [component, branch] pair, got {end!r}")
    return _json_str(end[0], "node end component"), _json_str(end[1], "node end branch")


def load_curve(source, base_dir: Path | None = None) -> NodalCurve:
    from .curves import NodalCurve

    obj, _ = _load_obj(source, "curve", base_dir)
    with _spec("curve"):
        comps = []
        for c in _json_list(obj["components"], "components"):
            branches = _json_list(c.get("branches", []), "branches")
            comps.append((_json_str(c["id"], "component id"),
                          tuple(_json_str(b, "branch label") for b in branches)))
        nodes = []
        for k, n in enumerate(_json_list(obj.get("nodes", []), "nodes")):
            ends = n["ends"]
            if type(ends) is not list or len(ends) != 2:
                raise SpecParseError(f"node ends must be two pairs, got {ends!r}")
            nodes.append((_json_str(n.get("id", f"n{k}"), "node id"),
                          _node_end(ends[0]), _node_end(ends[1])))
        return NodalCurve.build(comps, nodes)


def _hom_images(field, obj, images_key: str, gens_key: str, group, rank: int) -> tuple:
    """A hom given by its element images, or else by its generator images."""
    from .reps import hom_from_generator_images

    if images_key in obj:
        return tuple(matrix_from_json(field, m, rank)
                     for m in _json_list(obj[images_key], images_key))
    gens = [matrix_from_json(field, m, rank) for m in _json_list(obj[gens_key], gens_key)]
    return hom_from_generator_images(field, group, gens, rank)


def load_rep(source, base_dir: Path | None = None) -> ContinuousRep:
    from .curves import pi1_presentation
    from .field import FunctionField
    from .reps import ContinuousRep

    obj, base_dir = _load_obj(source, "rep", base_dir)
    with _spec("rep"):
        field = FunctionField(_json_int(obj["p"], "p"))
        rank = _json_int(obj["rank"], "rank")
        curve = load_curve(obj["curve"], base_dir)
        pres = pi1_presentation(curve)
        z_images = tuple(matrix_from_json(field, m, rank)
                         for m in _json_list(obj.get("z_images", []), "z_images"))
        groups = []
        homs = []
        for fac in _json_list(obj["factors"], "factors"):
            G = load_group(fac["group"], base_dir)
            groups.append(G)
            homs.append(_hom_images(field, fac, "images", "gen_images", G, rank))
        return ContinuousRep.build(pres, field, z_images, groups, homs)


def load_fq(source, curve: NodalCurve, base_dir: Path | None = None) -> FiniteQuotientRep:
    from .curves import pi1_presentation
    from .field import FunctionField
    from .reps import FiniteQuotientRep

    obj, base_dir = _load_obj(source, "quotient rep", base_dir)
    with _spec("quotient rep"):
        field = FunctionField(_json_int(obj["p"], "p"))
        rank = _json_int(obj["rank"], "rank")
        pres = pi1_presentation(curve)
        source_groups = [load_group(g, base_dir)
                         for g in _json_list(obj["source_groups"], "source_groups")]
        quotient = load_group(obj["quotient"], base_dir)
        z_to = [_json_int(x, "z_to entry") for x in _json_list(obj.get("z_to", []), "z_to")]
        factor_to = [tuple(_json_int(x, "factor_to entry") for x in _json_list(m, "factor_to row"))
                     for m in _json_list(obj["factor_to"], "factor_to")]
        hom = _hom_images(field, obj, "hom", "hom_gen_images", quotient, rank)
        return FiniteQuotientRep.build(pres, field, source_groups, quotient,
                                       z_to, factor_to, hom)


def dumps_report(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, so identical inputs
    yield byte-identical reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
