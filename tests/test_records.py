"""The record types are immutable named tuples with their fields in a
fixed order, and importing the CLI loads neither ``dataclasses`` nor
``fractions``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from patfix.audit import AuditReport, Cell, audit_formula
from patfix.equivalence import OrbitClass, SuperWilfClass, orbit, super_wilf_classes
from patfix.formulas import (
    RECURRENCES,
    Formula,
    Recurrence,
    RecurrenceReport,
    get_formula,
    recurrence_check,
)
from patfix.generators import StructuralFamily, supported_families
from patfix.genfun import RationalGF, gf_for_k
from patfix.oracle import _Sweep

# type, a factory for one instance, the fields in their order, and
# whether the frozen record hashed (a dict or array field never did; the
# mutable AuditReport had no hash).
RECORDS = [
    (Cell, lambda: Cell(4, -1, "1342", "-"),
     ("n", "k", "formula_value", "oracle_value"), True),
    (AuditReport, lambda: AuditReport("thm-x", "formula", "verified", 5, 21, 0, None, 0.5),
     ("item_id", "kind", "status", "n_max", "cells_checked", "cells_skipped",
      "counterexample", "duration_s", "detail"), False),
    (OrbitClass, lambda: orbit("132,231"), ("representative", "members"), True),
    (SuperWilfClass, lambda: super_wilf_classes(["132", "213", "321"], 5)[0],
     ("members", "n_max"), True),
    (Formula, lambda: get_formula("thm-231-321"), ("formula_id", "patterns", "min_n", "fn"), True),
    (Recurrence, lambda: RECURRENCES["thm-132-231"],
     ("patterns", "min_n", "terms", "zero_fixed_only"), True),
    (RecurrenceReport, lambda: recurrence_check("thm-231-312", 6),
     ("formula_id", "n_max", "cells_checked", "violations"), True),
    (StructuralFamily, lambda: supported_families()[0], ("patterns", "kind", "build"), True),
    (RationalGF, lambda: gf_for_k(2), ("numerator", "denominator"), True),
    (_Sweep, lambda: _Sweep(np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.uint8),
                            np.zeros((1, 1), dtype=np.uint8)),
     ("rows", "masks", "table"), False),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, make, fields, hashable", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_in_order(self, cls, make, fields, hashable):
        record = make()
        assert type(record) is cls
        assert cls._fields == fields
        assert tuple(record._asdict()) == fields

    def test_immutable(self, cls, make, fields, hashable):
        record = make()
        for name in (fields[0], fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_equality_and_hash(self, cls, make, fields, hashable):
        record = make()
        copy = cls(*record)
        assert copy == record and copy is not record
        assert record._replace() == record
        if hashable:
            assert hash(copy) == hash(record)
            assert len({copy, record}) == 1

    def test_repr(self, cls, make, fields, hashable):
        text = repr(make())
        assert text.startswith(f"{cls.__name__}({fields[0]}=")
        assert all(f" {name}=" in text for name in fields[1:])


class TestRecordBehaviour:
    def test_rational_gf_trims(self):
        gf = RationalGF([0, 1, 0, 0], (1, -1, 0))
        assert gf == RationalGF((0, 1), (1, -1))
        assert (gf.numerator, gf.denominator) == ((0, 1), (1, -1))
        assert str(gf) == "(x) / (1 - x)"
        assert gf._replace(numerator=(2, 0)).numerator == (2,)

    @pytest.mark.parametrize("denominator", [(0, 1), (), (0,)])
    def test_rational_gf_refuses_a_zero_constant_term(self, denominator):
        with pytest.raises(ValueError, match="nonzero constant term"):
            RationalGF((1,), denominator)
        with pytest.raises(ValueError, match="nonzero constant term"):
            gf_for_k(0)._replace(denominator=denominator)

    @pytest.mark.parametrize("patterns, size", [("123", 1), ("132", 2), ("132,231", 4)])
    def test_len_is_the_member_count(self, patterns, size):
        orb = orbit(patterns)
        assert len(orb) == len(orb.members) == size
        assert orb._replace(members=orb.members[:1]) == (orb.representative, orb.members[:1])
        assert len(orb._replace(members=orb.members[:1])) == 1

    def test_super_wilf_class_len(self):
        [single, triple] = sorted(super_wilf_classes(["123", "132", "213", "321"], 5), key=len)
        assert (len(single), len(triple)) == (1, 3)
        assert len(triple._replace(n_max=4)) == 3

    def test_cell_and_report_key_order(self):
        cell = Cell(4, -1, "1342", "-")
        assert list(cell._asdict()) == ["n", "k", "formula_value", "oracle_value"]
        report = AuditReport("thm-x", "formula", "discrepant", 5, 21, 2, cell, 0.5, "why")
        out = report.to_json_dict()
        assert list(out) == ["formula", "kind", "status", "n_max", "cells_checked",
                             "cells_skipped", "counterexample", "detail"]
        assert out["counterexample"] == {"n": 4, "k": -1, "formula_value": "1342",
                                         "oracle_value": "-"}
        assert "detail" not in report._replace(detail="").to_json_dict()
        assert json.loads(json.dumps(audit_formula("thm-231-321", 4).to_json_dict())) == {
            "formula": "thm-231-321", "kind": "formula", "status": "verified", "n_max": 4,
            "cells_checked": 15, "cells_skipped": 0, "counterexample": None,
        }


def test_importing_the_cli_loads_no_dataclasses_or_fractions():
    # What numpy itself imports differs between versions, so only the
    # modules that the CLI import adds are checked.  Then every public
    # name of the package and of each of its modules must resolve.
    code = (
        "import importlib, pkgutil, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import patfix, patfix.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'fractions', 'decimal'}))\n"
        "mods = [patfix] + [importlib.import_module('patfix.' + m.name)\n"
        "                   for m in pkgutil.iter_modules(patfix.__path__)\n"
        "                   if m.name != '__main__']\n"
        "print(sorted(f'{m.__name__}.{n}' for m in mods\n"
        "             for n in getattr(m, '__all__', ()) if not hasattr(m, n)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
