"""The result records: typing.NamedTuple values, and LieAlgebra, a plain
immutable class whose structure constants are cached per instance.  The
package imports no dataclasses, which would pull inspect, ast, dis and
tokenize into every start."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactlie
from exactlie import classify, dualpair, f4, slicegeom
from exactlie.classify import OrbitLabel
from exactlie.liealg import LieAlgebra, hook_slice, make_algebra

SRC = Path(exactlie.__file__).resolve().parents[1]

FROZEN = {
    "OrbitLabel": lambda: OrbitLabel("A", 2),
    "ClassificationVerdict": lambda: classify.classify(OrbitLabel("A", 2, partition=(2, 1))),
    "RootSystemF4": f4.f4_roots,
    "GradedF4": f4.f4_grading,
    "SL2SL2Module": f4.f4_module,
    "SliceInvariants": lambda: slicegeom.restrict_invariants(hook_slice(2)),
    "KPElement": lambda: dualpair.kp_find_element(3, 3),
    "LieAlgebra": lambda: make_algebra("sl", 2),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment(name):
    record = FROZEN[name]()
    assert type(record).__name__ == name
    field = "names" if name == "LieAlgebra" else record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_records_are_tuples_with_defaults_and_a_field_repr():
    label = OrbitLabel("A", 2)
    assert label == ("A", 2, None, None)
    assert label == OrbitLabel("A", 2, partition=None)
    assert repr(label) == "OrbitLabel(family='A', rank=2, partition=None, descriptor=None)"
    assert repr(make_algebra("sl", 2)) == "LieAlgebra(names=('b0', 'b1', 'b2'))"


def test_structure_constants_are_computed_once_per_instance():
    alg = make_algebra("sl", 3)
    calls = []

    def counted(x, y):
        calls.append(1)
        return alg.bracket(x, y)

    lie = LieAlgebra(alg.name, alg.size, alg.names, alg.basis, counted, alg.dual)
    table = lie.table
    assert lie.jacobi() == 8 ** 3
    assert lie.table is table
    assert len(calls) == 1
    # a second instance reads its own table, from its own bracket
    again = LieAlgebra(alg.name, alg.size, alg.names, alg.basis, counted, alg.dual)
    assert again.table == table
    assert len(calls) == 2


# run in a fresh interpreter: a module that other tests imported must not
# hide one that ``import exactlie.cli`` loads
PROBE = """
import json, sys
import exactlie.cli
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(done.stdout) == []
