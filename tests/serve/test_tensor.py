"""The predict body's tensor form (``repro.serve.tensor``): the codec on
its own, the server's 400s for malformed tensors, and list-form and
tensor-form requests getting the same answers from a live server."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.serve import ServeClient, ServeError, tensor


def roundtrip(array: np.ndarray) -> np.ndarray:
    """Encode, cross a JSON text boundary, decode."""
    doc = json.loads(json.dumps({"inputs": array}, default=tensor.encode))
    return tensor.decode(doc["inputs"])


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype="<f4").view("<u4")


def f32_doc(shape, raw: bytes) -> dict:
    return {"shape": shape, "f32": base64.b64encode(raw).decode()}


class TestCodec:
    @pytest.mark.parametrize(
        "shape", [(1, 12, 12), (1, 1, 12, 12), (0, 1, 12, 12), ()]
    )
    def test_roundtrip_is_bit_exact(self, shape):
        x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        y = roundtrip(x)
        assert y.dtype == np.float32 and y.shape == x.shape
        np.testing.assert_array_equal(bits(y), bits(x))

    def test_non_contiguous_input(self):
        base = np.arange(2 * 3 * 8 * 8, dtype=np.float32).reshape(2, 3, 8, 8)
        x = base[:, :, ::2, ::-1].transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(roundtrip(x), x)

    def test_big_endian_input(self):
        x = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 12)
        y = roundtrip(x.astype(">f4"))
        assert y.dtype == np.float32
        np.testing.assert_array_equal(bits(y), bits(x))

    def test_nan_and_inf_payloads_survive(self):
        words = np.array(
            [0x7FC00000, 0x7FC00001, 0xFFC12345, 0x7F800001,  # NaN payloads
             0x7F800000, 0xFF800000,  # ±inf
             0x80000000, 0x00000001],  # -0, the smallest subnormal
            dtype="<u4",
        )
        x = words.view("<f4").reshape(2, 4)
        np.testing.assert_array_equal(bits(roundtrip(x)).ravel(), words)

    def test_wire_bytes_are_little_endian_float32(self):
        doc = tensor.encode(np.array([[1.0, -2.5]], dtype=np.float64))
        assert doc == {
            "shape": [1, 2],
            "f32": base64.b64encode(
                np.array([1.0, -2.5], dtype="<f4").tobytes()
            ).decode(),
        }

    def test_encode_refuses_non_arrays(self):
        with pytest.raises(TypeError):
            tensor.encode([1.0, 2.0])
        with pytest.raises(TypeError):
            json.dumps({"x": {1}}, default=tensor.encode)


MALFORMED = {
    "bad base64": {"shape": [1], "f32": "AAA*AAA="},
    "bad padding": {"shape": [1], "f32": "AAAAAA"},
    "not a string": {"shape": [1], "f32": [0, 0, 0, 0]},
    "length mismatch": f32_doc([2, 2], bytes(12)),
    "unknown dtype tag": {
        "shape": [1], "f64": base64.b64encode(bytes(8)).decode(),
    },
    "two dtype tags": {**f32_doc([1], bytes(4)), "f16": "AAA="},
    "no dtype tag": {"shape": [1]},
    "no shape": {"f32": base64.b64encode(bytes(4)).decode()},
    "negative dim": f32_doc([-1, 1], b""),
    "float dim": f32_doc([1.0], bytes(4)),
    "bool dim": f32_doc([True], bytes(4)),
    "shape not a list": f32_doc(1, bytes(4)),
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_decode_raises_value_error(self, case):
        with pytest.raises(ValueError):
            tensor.decode(MALFORMED[case])

    def test_server_answers_400(self, server):
        model_server, _ = server
        with ServeClient(port=model_server.port, timeout=30.0) as client:
            for case, doc in sorted(MALFORMED.items()):
                with pytest.raises(ServeError) as excinfo:
                    client._request(
                        "POST", "/v1/predict", {"model": "tiny", "inputs": doc}
                    )
                assert excinfo.value.status == 400, case
                assert "'inputs'" in excinfo.value.payload["error"], case
            assert client.health()["status"] == "ok"

    def test_well_formed_tensor_of_wrong_shape_is_400(self, server):
        model_server, _ = server
        doc = f32_doc([2, 3], bytes(24))
        with ServeClient(port=model_server.port, timeout=30.0) as client:
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "POST", "/v1/predict", {"model": "tiny", "inputs": doc}
                )
        assert excinfo.value.status == 400
        assert "shape" in excinfo.value.payload["error"]


def test_list_and_tensor_forms_answer_alike(server, digits):
    model_server, net = server
    requests = [
        {"inputs": digits.x_test[:8]},
        {"inputs": digits.x_test[8:9], "start_planes": 2},
        {"inputs": digits.x_test[9]},  # one example, no batch dim
        {"inputs": digits.x_test[10:26], "start_planes": 1},
        {"inputs": digits.x_test[26:30], "exact": True},
    ]
    fields = ("predictions", "resolved_planes", "degraded")
    with ServeClient(port=model_server.port, timeout=30.0) as client:
        for request in requests:
            x = request["inputs"]
            answers = [
                client._request("POST", "/v1/predict", {
                    **request, "model": "tiny", "inputs": form,
                })
                for form in (x.tolist(), tensor.encode(x))
            ]
            as_list, as_tensor = ({f: a[f] for f in fields} for a in answers)
            assert as_list == as_tensor
            expected = net.predict(x.reshape((-1,) + net.input_shape))
            assert as_tensor["predictions"] == expected.tolist()


def test_empty_batch_keeps_its_shape(server, digits):
    # A nested list cannot say "no rows of shape (1, 12, 12)"; the tensor
    # form can, so an empty batch is an empty answer, not a shape error.
    model_server, _ = server
    with ServeClient(port=model_server.port, timeout=30.0) as client:
        answer = client.predict("tiny", digits.x_test[:0])
    assert answer.predictions.shape == (0,)
    assert answer.resolved_planes.shape == (0,)
