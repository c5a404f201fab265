"""README's examples run: the library quick tour gives the values its comments
state, and every JSON document README shows reads through its reader."""

import ast
import json
import pathlib
import re

import pytest

from psdmask import Domain, classify_sequence, function_from_json, matrix_from_json, rule_from_json
from psdmask.patterns import R3A_PARTITION_ALL

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"```(\w*)\n(.*?)```", re.S)
DOMAIN_KINDS = {"disc", "open_sym", "half_open_nonneg", "open_pos"}


def _documents():
    """Every ```json block, and every inline code span that opens a JSON object."""
    docs = [body for lang, body in FENCED.findall(README) if lang == "json"]
    prose = FENCED.sub("", README)
    return docs + re.findall(r"`(\{\"[^`]*)`", prose)


def test_quick_tour_runs_as_shown():
    lang, block = FENCED.search(README.split("## Library quick tour")[1]).groups()
    assert lang == "python"
    scope, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):  # a bare expression: the value its comment states
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), scope)
    assert scope["regime"] == R3A_PARTITION_ALL
    family, refuted, min_eig = shown
    assert family["c_interval"] == ["-1/2", "1"]
    assert refuted is True
    assert scope["verdict"].outcome == "Refuted"
    assert min_eig == pytest.approx(-0.05, rel=1e-12)  # (1 + 2c) x at c = -3/4, x = 0.1


def _reader(data: dict):
    if "variant" in data:
        return function_from_json
    if "entries" in data:
        return matrix_from_json
    if data.get("kind") in DOMAIN_KINDS:
        return Domain.from_json
    return lambda doc: classify_sequence(rule_from_json(doc))  # a rule is classified as well as read


def test_readme_shows_every_kind_of_document():
    readers = {_reader(json.loads(doc)) for doc in _documents()}
    assert {function_from_json, matrix_from_json, Domain.from_json} < readers


@pytest.mark.parametrize("doc", _documents())
def test_every_json_document_reads(doc):
    data = json.loads(doc)
    _reader(data)(data)
