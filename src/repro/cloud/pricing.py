"""On-demand pricing catalog.

The paper prices deployments with "the pricing table for the machine
configurations from AWS at the time of this writeup".  We freeze an
equivalent catalog: three families x {1, 2, 4, 8} vCPUs.  The effective
hourly rates for the general-purpose and memory-optimized tiers are fitted
to the per-stage rates implied by the paper's Table I (cost / runtime), so
the knapsack's selection structure — e.g. routing being *cheaper* on 4
vCPUs than on 1 — reproduces.  Note these rates are deliberately
sub-linear in vCPUs, as the implied AWS menu was.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from ..parallel import PAPER_VCPU_LEVELS
from .instance import InstanceFamily, VMConfig

__all__ = ["PricingTable", "aws_like_catalog"]

#: Hourly rates fitted to Table I's effective per-stage rates (USD/h).
_GENERAL_PURPOSE_RATES = {1: 0.0944, 2: 0.1244, 4: 0.1983, 8: 0.3973}
_MEMORY_OPTIMIZED_RATES = {1: 0.1150, 2: 0.1610, 4: 0.2700, 8: 0.5430}
#: Compute-optimized filler family (c5-like, near-linear pricing).
_COMPUTE_OPTIMIZED_RATES = {1: 0.0850, 2: 0.1620, 4: 0.3160, 8: 0.6240}

_SIZE_SUFFIX = {1: "1x", 2: "2x", 4: "4x", 8: "8x"}


class PricingTable:
    """A queryable catalog of VM configurations."""

    def __init__(self, configs: Iterable[VMConfig]):
        self._configs: List[VMConfig] = list(configs)
        if not self._configs:
            raise ValueError("pricing table cannot be empty")
        self._by_name: Dict[str, VMConfig] = {c.name: c for c in self._configs}
        if len(self._by_name) != len(self._configs):
            raise ValueError("duplicate VM names in catalog")

    def __iter__(self):
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def by_name(self, name: str) -> VMConfig:
        return self._by_name[name]

    def options(
        self,
        family: Optional[InstanceFamily] = None,
        vcpus: Optional[Iterable[int]] = None,
    ) -> List[VMConfig]:
        """Configs filtered by family and/or vCPU menu, sorted by vCPUs."""
        wanted = set(vcpus) if vcpus is not None else None
        out = [
            c
            for c in self._configs
            if (family is None or c.family == family)
            and (wanted is None or c.vcpus in wanted)
        ]
        return sorted(out, key=lambda c: (c.vcpus, c.price_per_hour))

    def config(self, family: InstanceFamily, vcpus: int) -> VMConfig:
        """The unique config of a family at a vCPU count."""
        matches = self.options(family=family, vcpus=[vcpus])
        if not matches:
            raise KeyError(f"no {family.value} config with {vcpus} vCPUs")
        return matches[0]

    def cheapest(self, vcpus: int) -> VMConfig:
        """Cheapest config at a given vCPU count, any family."""
        matches = self.options(vcpus=[vcpus])
        if not matches:
            raise KeyError(f"no config with {vcpus} vCPUs")
        return min(matches, key=lambda c: c.price_per_hour)

    def repriced(self, factor: float, suffix: str = "") -> "PricingTable":
        """A copy of the catalog with every hourly rate scaled by ``factor``.

        Regional catalogs are minted this way: ``suffix`` (e.g.
        ``"@eu-central"``) keeps the minted names distinct from the
        reference region's so both menus can coexist in one plan.
        """
        if factor <= 0:
            raise ValueError(f"price factor must be positive, got {factor!r}")
        return PricingTable(
            replace(
                c,
                name=f"{c.name}{suffix}",
                price_per_hour=c.price_per_hour * factor,
            )
            for c in self._configs
        )


def aws_like_catalog() -> PricingTable:
    """Build the default frozen catalog (see module docstring)."""
    configs: List[VMConfig] = []
    for vcpus in PAPER_VCPU_LEVELS:
        suffix = _SIZE_SUFFIX[vcpus]
        configs.append(
            VMConfig(
                name=f"gp.{suffix}",
                family=InstanceFamily.GENERAL_PURPOSE,
                vcpus=vcpus,
                memory_gb=4.0 * vcpus,
                price_per_hour=_GENERAL_PURPOSE_RATES[vcpus],
                avx=True,
            )
        )
        configs.append(
            VMConfig(
                name=f"mem.{suffix}",
                family=InstanceFamily.MEMORY_OPTIMIZED,
                vcpus=vcpus,
                memory_gb=8.0 * vcpus,
                price_per_hour=_MEMORY_OPTIMIZED_RATES[vcpus],
                avx=True,
            )
        )
        configs.append(
            VMConfig(
                name=f"cpu.{suffix}",
                family=InstanceFamily.COMPUTE_OPTIMIZED,
                vcpus=vcpus,
                memory_gb=2.0 * vcpus,
                price_per_hour=_COMPUTE_OPTIMIZED_RATES[vcpus],
                avx=True,
            )
        )
    return PricingTable(configs)
