"""Fig. 7 parity — the rows must not move a bit at any ``jobs``.

Every trial builds its own problem instance from the sweep point's
scenario, so a process pool must reproduce the serial rows exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig07


@pytest.fixture(scope="module")
def default_rows():
    return fig07.run(repetitions=2).rows


class TestSharedParity:
    def test_shared_parallel_rows_byte_identical(self, default_rows):
        assert fig07.run(repetitions=2, jobs=3).rows == default_rows

    def test_shape(self, default_rows):
        assert len(default_rows) == len(fig07.NODE_COUNTS) * 3
        algorithms = {row["algorithm"] for row in default_rows}
        assert algorithms == {"BFDSU", "FFD", "NAH"}
