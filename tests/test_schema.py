"""The one JSON reader: every config a file carries reads back as it was written."""

import json

from reconkit import networks, phantom


def test_every_config_the_reader_serves_reads_back_through_json():
    # a field whose hint the reader cannot handle fails here, not in a user's checkpoint load
    for kind in networks.MODEL_KINDS:
        echo = networks.build_model(kind).config_dict()
        assert networks.model_from_config(json.loads(json.dumps(echo))).config_dict() == echo
    spec = phantom.default_brain_spec(size=16, seed=3).to_dict()
    assert phantom.PhantomSpec.from_dict(json.loads(json.dumps(spec))).to_dict() == spec
