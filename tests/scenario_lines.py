"""A scenario parsed from a list of lines into a list of records, and a
scenario as its list of lines: the tests' shorthand for the parser and
the writer. The package itself parses a line at a time
(``scenario.iter_records``) and writes one text (``Scenario.write``).
"""

from cogloop.scenario import Scenario, _scan, _scenario_text


def parse_scenario_lines(lines) -> Scenario:
    """A scenario with all its records parsed into memory."""
    scan = _scan(lines)
    header = next(scan)
    return Scenario(header=header, records=list(scan))


def scenario_to_lines(scenario: Scenario) -> list[str]:
    """The scenario's lines, as ``Scenario.write`` writes them."""
    return _scenario_text(scenario).split("\n")
