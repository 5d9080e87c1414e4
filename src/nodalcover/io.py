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
from pathlib import Path

from .curves import NodalCurve, dual_graph, pi1_presentation
from .errors import SpecParseError
from .field import FunctionField, MatrixK, rf_from_string
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from .reps import ContinuousRep, FiniteQuotientRep, hom_from_generator_images


def _load_obj(source, base_dir: Path | None = None):
    if isinstance(source, (dict, list)):
        return source, base_dir
    path = Path(source)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        # nested file references resolve relative to the referencing file
        return json.loads(path.read_text()), path.resolve().parent
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise SpecParseError(f"cannot read spec file {path}: {exc}") from exc


def matrix_from_json(field: FunctionField, rows, rank: int | None = None) -> MatrixK:
    """Matrix from rows of element strings; a given rank asks for rank x rank."""
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


def matrix_to_json(M: MatrixK) -> list[list[str]]:
    return M.to_strings()


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, and not a count
        raise SpecParseError(f"{what} must be an integer, got {value!r}")
    return value


def load_group(source, base_dir: Path | None = None) -> FiniteGroup:
    obj, _ = _load_obj(source, base_dir)
    if not isinstance(obj, dict):
        raise SpecParseError("group spec must be an object")
    if "builtin" in obj:
        kind = obj["builtin"]
        n = _json_int(obj.get("n", 1), "builtin group size n")
        try:
            if kind == "cyclic":
                return cyclic_group(n)
            if kind == "dihedral":
                return dihedral_group(n)
            if kind == "symmetric":
                return symmetric_group(n)
            if kind == "trivial":
                return trivial_group()
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
        raise SpecParseError(f"unknown builtin group {kind!r}")
    try:
        table = obj["table"]
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
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError(f"bad group spec: {exc}") from exc


def _json_str(value, what: str) -> str:
    if type(value) is not str:
        raise SpecParseError(f"{what} must be a string, got {value!r}")
    return value


def _node_end(end) -> tuple[str, str]:
    if type(end) is not list or len(end) != 2:
        raise SpecParseError(f"a node end must be a [component, branch] pair, got {end!r}")
    return _json_str(end[0], "node end component"), _json_str(end[1], "node end branch")


def load_curve(source, base_dir: Path | None = None) -> NodalCurve:
    obj, _ = _load_obj(source, base_dir)
    try:
        comps = []
        for c in obj["components"]:
            branches = c.get("branches", [])
            if type(branches) is not list:
                raise SpecParseError(f"branches must be a list, got {branches!r}")
            comps.append((_json_str(c["id"], "component id"),
                          tuple(_json_str(b, "branch label") for b in branches)))
        nodes = []
        for k, n in enumerate(obj.get("nodes", ())):
            ends = n["ends"]
            if type(ends) is not list or len(ends) != 2:
                raise SpecParseError(f"node ends must be two pairs, got {ends!r}")
            nodes.append((_json_str(n.get("id", f"n{k}"), "node id"),
                          _node_end(ends[0]), _node_end(ends[1])))
        curve = NodalCurve.build(comps, nodes)
        dual_graph(curve)  # a disconnected curve has no presentation
        return curve
    except SpecParseError:
        raise
    except (KeyError, IndexError, TypeError) as exc:
        raise SpecParseError(f"bad curve spec: {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"invalid curve: {exc}") from exc


def _hom_from_gen_images(field: FunctionField, G: FiniteGroup,
                         gen_mats: list[MatrixK], rank: int) -> tuple[MatrixK, ...]:
    try:
        return hom_from_generator_images(field, G, gen_mats, rank)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def load_rep(source, base_dir: Path | None = None) -> ContinuousRep:
    obj, base_dir = _load_obj(source, base_dir)
    try:
        field = FunctionField(_json_int(obj["p"], "p"))
        rank = _json_int(obj["rank"], "rank")
        curve = load_curve(obj["curve"], base_dir)
        pres = pi1_presentation(curve)
        z_images = tuple(matrix_from_json(field, m, rank) for m in obj.get("z_images", ()))
        groups = []
        homs = []
        for fac in obj["factors"]:
            G = load_group(fac["group"], base_dir)
            groups.append(G)
            if "images" in fac:
                homs.append(tuple(matrix_from_json(field, m, rank) for m in fac["images"]))
            else:
                gens = [matrix_from_json(field, m, rank) for m in fac["gen_images"]]
                homs.append(_hom_from_gen_images(field, G, gens, rank))
        return ContinuousRep.build(pres, field, z_images, groups, homs)
    except SpecParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError(f"bad rep spec: {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"invalid rep: {exc}") from exc


def load_fq(source, curve: NodalCurve, base_dir: Path | None = None) -> FiniteQuotientRep:
    obj, base_dir = _load_obj(source, base_dir)
    try:
        field = FunctionField(_json_int(obj["p"], "p"))
        rank = _json_int(obj["rank"], "rank")
        pres = pi1_presentation(curve)
        source_groups = [load_group(g, base_dir) for g in obj["source_groups"]]
        quotient = load_group(obj["quotient"], base_dir)
        z_to = [_json_int(x, "z_to entry") for x in obj.get("z_to", ())]
        factor_to = [tuple(_json_int(x, "factor_to entry") for x in m)
                     for m in obj["factor_to"]]
        if "hom" in obj:
            hom = tuple(matrix_from_json(field, m, rank) for m in obj["hom"])
        else:
            gens = [matrix_from_json(field, m, rank) for m in obj["hom_gen_images"]]
            hom = _hom_from_gen_images(field, quotient, gens, rank)
        return FiniteQuotientRep.build(pres, field, source_groups, quotient,
                                       z_to, factor_to, hom)
    except SpecParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError(f"bad quotient rep spec: {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"invalid quotient rep: {exc}") from exc


def dumps_report(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, so identical inputs
    yield byte-identical reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
