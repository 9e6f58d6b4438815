"""The simulator's many-instance records declare ``__slots__``.

A hierarchy holds one ``Line`` per way, the replay kernels one
``LevelTally`` per level and core, and the SLIP runtime one
``SlipPageEntry`` per page. Without ``Line.__slots__`` a 150k-access
scalar replay (lbm, baseline, DRRIP) peaks about 2 MB (3%) higher in
RSS, measured on Python 3.11; its wall time moves less than the
run-to-run noise. A slotted class whose instances still get a
``__dict__`` (a slot list missed, or an unslotted base) pays that cost
again, so each record must have no instance ``__dict__``.
"""

import pytest

from repro.core.runtime import SlipPageEntry
from repro.core.sampling import PageState
from repro.mem.cache import EvictedLine, Line
from repro.sim.vector_replay import LevelTally


def line():
    made = Line()
    made.reset()
    return made


RECORDS = {
    "Line": line,
    "EvictedLine": lambda: EvictedLine(line(), from_way=0),
    "SlipPageEntry": lambda: SlipPageEntry(PageState.SAMPLING, {}, {}),
    "LevelTally": lambda: LevelTally(3),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_record_has_no_instance_dict(record):
    assert not hasattr(RECORDS[record](), "__dict__")
