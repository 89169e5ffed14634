"""Hypothesis profiles, chosen by the ``HYPOTHESIS_PROFILE`` variable.

``tier1`` (the default) keeps the suite fast; ``ci`` runs ten times its
examples.  A property that leaves ``max_examples`` unset takes it from the
profile; the others pin their own counts.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", max_examples=200)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
