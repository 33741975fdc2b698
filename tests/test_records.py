"""The package's public records: immutable, and checked where they are built.

Every record but ``WeightVector`` is a named tuple.  ``WeightVector`` stays a
frozen dataclass: its length is its dimension, and as a one-field tuple its
length would be 1 and iterating it would yield the whole array."""

import pytest

import lcmoments
from lcmoments.constants import ScanResult, scan_family_extrema
from lcmoments.crossings import SignChangeReport, ThreeCrossingsResult, verify_3crossings
from lcmoments.errors import DomainError
from lcmoments.expfamily import ComparisonCheck, LogConcaveTestDensity, TwoSidedExpParams, centred_uniform
from lcmoments.expfamily import fradelizi_check, match_two_sided
from lcmoments.mc import McConfig, McEstimate, estimate_xab_moments
from lcmoments.simplex import MaxSectionResult, WeightVector

_CONFIG = McConfig(seed=1)
_NORMAL = WeightVector.from_raw([1.0, -1.0], project=True)

# each public record type, built the way the package builds it
_MAKERS = {
    ScanResult: lambda: scan_family_extrema(2.0, 100),
    TwoSidedExpParams: lambda: match_two_sided(0.45, 1.0),
    LogConcaveTestDensity: lambda: centred_uniform(1.0),
    ComparisonCheck: lambda: fradelizi_check(centred_uniform(1.0), 2.0),
    SignChangeReport: lambda: verify_3crossings(0.5).report_upper,
    ThreeCrossingsResult: lambda: verify_3crossings(0.5),
    McConfig: lambda: _CONFIG,
    McEstimate: lambda: estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), 2.0)], _CONFIG)[0],
    MaxSectionResult: lambda: MaxSectionResult(_NORMAL, 2**-0.5, 2**-0.5, 1),
    WeightVector: lambda: _NORMAL,
}


def test_every_public_record_is_covered():
    public = {getattr(lcmoments, name) for name in lcmoments.__all__}
    records = {obj for obj in public if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert records == set(_MAKERS)


@pytest.mark.parametrize("record", list(_MAKERS), ids=lambda record: record.__name__)
def test_fields_cannot_be_assigned(record):
    value = _MAKERS[record]()
    assert type(value) is record
    fields = record._fields if issubclass(record, tuple) else ("a",)
    for name in (*fields, "extra"):
        # a frozen dataclass raises FrozenInstanceError, an AttributeError
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoSidedExpParams(-1, 0),
        lambda: SignChangeReport((2.0, 1.0), "+-+"),
        lambda: McConfig(seed=1, samples=10),
        lambda: TwoSidedExpParams(1.0, 0.5)._replace(a=-1.0),
        lambda: SignChangeReport((1.0, 2.0), "+-+")._replace(pattern="++"),
        lambda: _CONFIG._replace(samples=10),
    ],
    ids=[
        "negative-scale",
        "non-increasing-crossings",
        "too-few-samples",
        "replaced-scale",
        "replaced-pattern",
        "replaced-samples",
    ],
)
def test_documented_validation_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_a_weight_vector_has_its_dimension_for_length_and_is_not_iterable():
    assert len(_NORMAL) == 2
    with pytest.raises(TypeError):
        iter(_NORMAL)
