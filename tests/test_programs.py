"""The one compile point of the generated programs, `contactmech._programs.program`.

Every generated function is compiled there under a "<contactmech ...>"
file name, and its source stays in `linecache` while it lives: a
traceback through a program shows the failing line, and
`inspect.getsource` shows the program.  A collected program leaves no
entry behind, so the line cache stays bounded by the kernel cache.
"""

import ast
import gc
import inspect
import linecache
import traceback
from pathlib import Path

import pytest

import contactmech
from contactmech import (
    ContactChart,
    ContactConditionError,
    ContactSystem,
    EvaluationDomainError,
    conformal_rescale,
    expressions,
    flows,
    geometry,
    integrability,
    parse,
    symplectization,
)

SOURCES = sorted(Path(contactmech.__file__).parent.glob("*.py"))


def _formatted(error: type, call) -> str:
    with pytest.raises(error) as info:
        call()
    return "".join(traceback.format_exception(info.value))


def test_field_program_traceback_shows_the_failing_line():
    # the flat matrix of the rescaled chart has det 1e-12 at this point
    system = ContactSystem(conformal_rescale(ContactChart.standard(1), "0.001"), ["p", "z"])
    field = system.field_evaluator("p")
    text = _formatted(ContactConditionError, lambda: field([0.1, 1.0, 1.0]))
    assert 'File "<contactmech contact-field dim=3 kernel ' in text
    assert "raise singular(point((x0, x1, x2,)), det)" in text


def test_kernel_traceback_names_the_kernel_and_shows_a_line():
    kernel = expressions.fused_kernel((parse("log(q)"),), ("q", "p", "z"))
    name = kernel.__code__.co_filename
    assert name.startswith("<contactmech kernel ") and name.endswith(">")
    lines = _formatted(EvaluationDomainError, lambda: kernel([-1.0, 0.0, 0.0])).splitlines()
    at = lines.index(next(line for line in lines if f'File "{name}"' in line))
    assert lines[at + 1].strip() == "raise _domain_error(exc) from None"


def test_every_builder_has_its_source_readable():
    general = ContactSystem(conformal_rescale(ContactChart.standard(1), "exp(q)"), ["p", "z"])
    standard = symplectization.symplectize(ContactSystem(ContactChart.standard(1), ["p", "z"]))
    functions = [
        expressions.fused_kernel((parse("q * p - z"),), ("q", "p", "z")),
        geometry._field_program("contact", 3, 1)["solve"],
        general.field_evaluator(0),
        general._field(0),
        standard.field_evaluator(0),
        standard._field(0),
        geometry._variational_program("lifted", 4),
        geometry._closed_program(symplectization._darboux_field, 4),
        flows._step_program(3),
        integrability._ray_program(2, 3),
        integrability._angle_step_program(2, 4),
    ]
    for function in functions:
        source = inspect.getsource(function)
        assert source.startswith(f"def {function.__name__}("), source[:80]
        assert function.__code__.co_filename.startswith("<contactmech ")


def test_line_cache_drops_a_collected_kernel():
    kernel = expressions.fused_kernel((parse("q * 1.625 + p"),), ("q", "p", "z"))
    other = expressions.fused_kernel((parse("q * 1.625 - p"),), ("q", "p", "z"))
    name = kernel.__code__.co_filename
    assert name != other.__code__.co_filename
    assert name in linecache.cache and other.__code__.co_filename in linecache.cache
    del kernel
    expressions._kernel.cache_clear()
    gc.collect()
    assert name not in linecache.cache
    assert other.__code__.co_filename in linecache.cache  # still referenced here


def test_a_recompiled_program_keeps_its_source():
    # a cleared builder compiles again under the same name; the first
    # program's collection must not drop the second's lines
    first = flows._step_program(4)
    flows._step_program.cache_clear()
    second = flows._step_program(4)
    name = second.__code__.co_filename
    assert first is not second and first.__code__.co_filename == name
    del first
    gc.collect()
    assert inspect.getsource(second).startswith("def step(")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_programs_module_compiles_source(path):
    calls = [node.func.id for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == ([] if path.name != "_programs.py" else ["exec", "compile"])
