"""``assert_valid``: raise on IR that fails the :mod:`repro.analysis.static`
verifier.

The verifier itself lives in :mod:`repro.analysis.static`, with tiered depth
(``structural`` / ``typed`` / ``full``, selectable per call or via
``REPRO_VERIFY_IR``), structured diagnostics, dominance-based def-before-use
and dataflow lints; read its diagnostics there.  The passes, the obfuscators
and the tests check IR through :func:`assert_valid`, which raises
:class:`VerificationError` with the rendered errors.

The analysis package is imported lazily: ``repro.ir.__init__`` imports this
module at package-load time, and ``repro.analysis`` imports ``repro.ir`` — a
module-level import here would cycle.
"""

from __future__ import annotations

from typing import List, Union


class VerificationError(Exception):
    """Raised when IR violates an invariant of the selected verify tier."""

    def __init__(self, errors: List[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def assert_valid(obj, tier: Union[None, bool, str] = None,
                 analyses=None) -> None:
    """Verify a Function, Module or Program and raise on any error."""
    from ..analysis import static
    errors = [d.render() for d in static.verification_errors(obj, tier,
                                                             analyses)]
    if errors:
        raise VerificationError(errors)
