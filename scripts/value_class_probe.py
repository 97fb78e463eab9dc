"""Check nsg's value classes against dataclasses twins, with the standard library only.

    PYTHONPATH=src python3 scripts/value_class_probe.py

nsg builds its frozen, slotted value classes without dataclasses
(core._value_class) and fills in __dataclass_fields__ on first read.  This
probe checks, under whichever interpreter runs it, that the result behaves
as that version's own dataclasses would:

- `import nsg, nsg.cli` loads neither dataclasses nor inspect, unless
  the interpreter's start-up already has;
- for every value class, against a make_dataclass twin with the same
  fields: fields, signature, __match_args__, repr, ==, hash,
  FrozenInstanceError, asdict, replace, pickle, deepcopy, weak references
  where the class takes them, and copy.replace where the version has it.

It prints one line per class and exits 0, or raises at the first mismatch.
"""

import sys

before = set(sys.modules)  # some site setups load inspect before any import here

import nsg  # noqa: E402
import nsg.cli  # noqa: E402

loaded = {"dataclasses", "inspect"} & set(sys.modules) - before
if loaded:
    raise AssertionError(f"import nsg, nsg.cli loaded {sorted(loaded)}")

import copy  # noqa: E402
import dataclasses  # noqa: E402
import inspect  # noqa: E402
import pickle  # noqa: E402
import weakref  # noqa: E402


FIELD_ATTRIBUTES = (
    "name", "type", "default", "default_factory", "init", "repr", "hash",
    "compare", "metadata", "kw_only", "_field_type",
)


def samples():
    """One instance of each value class, from the library's own calls."""
    s = nsg.make_semigroup([4, 6, 9])
    made = [
        s,
        s.apery,
        nsg.record_for(s),
        nsg.verify_star(5),
        nsg.star_report(s),
        nsg.check_star_gluing(nsg.make_semigroup([2, 3]), nsg.make_semigroup([2, 5]), 4, 7),
        nsg.small_exceptions(3, 4),
        nsg.hypotheses_report(s),
        nsg.ci_tree(s),
        nsg.ci_tree(s).split,
        nsg.minimal_presentation(s),
    ]
    return {type(sample): sample for sample in made}


def check_class(cls, sample):
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) for f in fields],
        namespace={"__hash__": cls.__hash__} if cls is nsg.NumericalSemigroup else {},
        frozen=True,
    )
    for mine, theirs in zip(fields, dataclasses.fields(twin), strict=True):
        for attribute in FIELD_ATTRIBUTES:
            assert getattr(mine, attribute) == getattr(theirs, attribute), (cls, attribute)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(sample)
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    values = [getattr(sample, name) for name in names]
    built, other = cls(*values), twin(**dict(zip(names, values)))
    assert built == sample and built == cls(**dict(zip(names, copy.deepcopy(values))))
    assert built != other and other != built  # different classes never compare equal
    assert repr(built) == repr(sample) == repr(other)
    assert hash(built) == hash(other) == hash(sample)
    assert dataclasses.asdict(built) == dataclasses.asdict(other)
    for name in (names[0], names[-1]):
        changed = dataclasses.replace(built, **{name: "changed"})
        assert repr(changed) == repr(dataclasses.replace(other, **{name: "changed"}))
        if hasattr(copy, "replace"):
            assert copy.replace(built, **{name: "changed"}) == changed
            assert repr(copy.replace(built, **{name: "changed"})) == repr(
                copy.replace(other, **{name: "changed"})
            )
    messages = []
    for obj in (built, other):
        for action in (lambda: setattr(obj, names[0], values[0]), lambda: delattr(obj, names[-1])):
            try:
                action()
            except dataclasses.FrozenInstanceError as err:
                messages.append(str(err))
            else:
                raise AssertionError(f"{type(obj).__name__} field changed")
    assert messages[:2] == messages[2:], messages
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(built, protocol))
        assert type(copied) is cls and copied == built and repr(copied) == repr(built)
    for copied in (copy.copy(built), copy.deepcopy(built)):
        assert type(copied) is cls and copied == built and repr(copied) == repr(built)
    assert not hasattr(built, "__dict__")
    if cls is nsg.NumericalSemigroup:
        assert weakref.ref(built)() is built


def main() -> int:
    for cls, sample in samples().items():
        check_class(cls, sample)
        print(f"{cls.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
