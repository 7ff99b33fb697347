"""Structural validation of netlists.

The synthetic benchmark generators, the masking transform, and the parser all
funnel their results through :func:`validate_netlist` in the test-suite, so
any rewrite that produces combinational loops, undriven nets, or fan-in
violations is caught immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .graph import gate_graph
from .netlist import Netlist


@dataclass
class ValidationReport:
    """Outcome of validating one netlist.

    Attributes:
        errors: Violations that make the netlist unusable (loops, undriven
            nets feeding logic, missing primary outputs drivers).
        warnings: Non-fatal oddities (dangling nets, unused inputs).
    """

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """True when no errors were found."""
        return not self.errors


def validate_netlist(netlist: Netlist) -> ValidationReport:
    """Check ``netlist`` for structural problems and return a report."""
    report = ValidationReport()

    if not netlist.primary_inputs:
        report.errors.append("netlist has no primary inputs")
    if not netlist.primary_outputs:
        report.errors.append("netlist has no primary outputs")

    undriven = netlist.undriven_nets()
    if undriven:
        report.errors.append(
            "undriven nets read by gates or outputs: " + ", ".join(undriven[:10])
        )

    dangling = netlist.dangling_nets()
    if dangling:
        report.warnings.append(
            "dangling nets (driven but never read): " + ", ".join(dangling[:10])
        )

    for gate in netlist.gates:
        if gate.fanin == 0 and not gate.gate_type.is_port:
            report.errors.append(f"gate {gate.name!r} has no inputs")
        spec = netlist.library[gate.gate_type]
        if spec.max_fanin and gate.fanin > spec.max_fanin:
            report.errors.append(
                f"gate {gate.name!r} exceeds max fan-in "
                f"({gate.fanin} > {spec.max_fanin})"
            )
        if len(set(gate.inputs)) != len(gate.inputs):
            report.warnings.append(f"gate {gate.name!r} has duplicated input nets")

    loop = gate_graph(netlist).loop
    if loop:
        report.errors.append("combinational loop detected: " + " -> ".join(loop))

    unused_inputs = [
        net for net in netlist.primary_inputs if not netlist.sinks_of(net)
        and net not in netlist.primary_outputs
    ]
    if unused_inputs:
        report.warnings.append(
            "primary inputs never read: " + ", ".join(unused_inputs[:10])
        )
    return report
