"""Output-access contracts of the parallel kernels.

Every parallel kernel's race-freedom rests on a claim about how its chunk
decomposition writes the shared output.  :class:`Access` names the two
disciplines the suite uses, kernels declare theirs with the
:func:`declares_output` decorator (per update ``method`` where the
strategy is selectable), and
:class:`~repro.parallel.racecheck.RaceCheckBackend` replays the
decomposition and verifies the claim.  See the module docstring of
``repro.parallel.racecheck`` for what each kind promises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping


class Access(str, enum.Enum):
    """How a kernel's chunks write their shared output.

    ``OWNER``
        Chunks own disjoint contiguous output ranges (owner-computes);
        no two chunks may touch the same element.
    ``DISJOINT``
        Chunks write disjoint output elements by construction (fiber- or
        element-parallel loops; per-nnz disjointness).
    """

    OWNER = "owner"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class OutputContract:
    """A kernel's declared output-access discipline.

    ``access`` is either a single :class:`Access` (the kernel has one
    strategy) or a mapping from the kernel's ``method`` argument values to
    the :class:`Access` each method's chunks write under.
    """

    kernel: str
    access: "Access | Mapping[str, Access]"

    def resolve(self, method: "str | None" = None) -> Access:
        """The access kind for ``method`` (or the single declared kind)."""
        if isinstance(self.access, Access):
            return self.access
        if method is None:
            raise ValueError(
                f"kernel {self.kernel!r} declares per-method contracts "
                f"{sorted(self.access)}; pass method="
            )
        try:
            return self.access[method]
        except KeyError:
            raise ValueError(
                f"kernel {self.kernel!r} has no contract for method "
                f"{method!r}; declared: {sorted(self.access)}"
            ) from None

    @property
    def methods(self) -> "tuple[str, ...] | None":
        """Method names with distinct contracts (``None`` if single)."""
        if isinstance(self.access, Access):
            return None
        return tuple(sorted(self.access))


_CONTRACTS: dict[str, OutputContract] = {}


def declares_output(access=None, *, by_method=None, name=None):
    """Decorator annotating a kernel with its output-access contract.

    Either ``access`` (one :class:`Access` for the kernel) or
    ``by_method`` (a ``{method: Access}`` mapping for kernels whose
    strategy is selected by a ``method`` argument) must be given.  The
    contract is attached as ``fn.__output_contract__`` and registered
    under the kernel's name for harness discovery.
    """
    if (access is None) == (by_method is None):
        raise ValueError("declares_output needs exactly one of access/by_method")
    if by_method is not None:
        spec = MappingProxyType(
            {str(k): Access(v) for k, v in dict(by_method).items()}
        )
    else:
        spec = Access(access)

    def deco(fn):
        contract = OutputContract(kernel=name or fn.__name__, access=spec)
        fn.__output_contract__ = contract
        _CONTRACTS[contract.kernel] = contract
        return fn

    return deco


def output_contract(kernel) -> OutputContract:
    """Look up a registered contract by kernel name or decorated function."""
    contract = getattr(kernel, "__output_contract__", None)
    if contract is not None:
        return contract
    try:
        return _CONTRACTS[str(kernel)]
    except KeyError:
        raise KeyError(
            f"no output contract registered for {kernel!r}; "
            f"registered: {sorted(_CONTRACTS)}"
        ) from None


def registered_contracts() -> dict[str, OutputContract]:
    """Snapshot of every registered kernel contract."""
    return dict(_CONTRACTS)
