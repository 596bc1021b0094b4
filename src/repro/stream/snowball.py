"""The stream's name for the one snowball expander.

Expansion has one rule and one implementation,
:class:`repro.core.snowball.SnowballExpander` — the monotone closure of
the admission rule, computed in semi-naive rounds.  The stream folds
each delta into it with ``advance(watermark, touched)``; the batch
build folds the whole chain in one ``advance``.  ``IncrementalExpander``
is the same class object under the stream's name.
"""

from __future__ import annotations

from repro.core.snowball import SnowballExpander as IncrementalExpander
from repro.core.snowball import TickReport

__all__ = ["IncrementalExpander", "TickReport"]
