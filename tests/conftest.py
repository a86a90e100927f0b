import json

import pytest


@pytest.fixture
def checked_region():
    """Report text minus its timings section, as the CLI writes JSON: the
    part of a report that must be byte-identical from run to run."""
    def region(report_json):
        obj = json.loads(report_json)
        obj.pop("timings", None)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return region
