"""StreamSession serving entry points: ingest / predict_times /
the merged multi-horizon advance."""

import numpy as np
import pytest

from repro.core import DiffODE, DiffODEConfig
from repro.serving.engine import InferenceEngine

from .conftest import make_payload, offline_predictions, tiny_model, \
    tolerance_band


def fed_session(model, payload):
    session = model.open_stream()
    times = np.asarray(payload["times"], dtype=np.float64)
    values = np.asarray(payload["values"], dtype=np.float64)
    for t, v in zip(times, values):
        session.ingest(float(t), v)
    return session


class TestAdvanceMany:
    def test_bitwise_equals_sequential_advances(self, rng):
        """One merged resumed solve through several horizons must land on
        exactly the states a per-horizon advance loop produces."""
        payload = make_payload(rng)
        taus = [0.45, 0.6, 0.85, 1.1]
        merged = fed_session(tiny_model(), payload)
        stepped = fed_session(tiny_model(), payload)

        states, nfev = merged._advance_many(taus)
        seq_states, seq_nfev = [], 0
        for tau in taus:
            seq_nfev += stepped._advance(tau)
            seq_states.append(np.array(stepped._y.data, copy=True))

        assert nfev > 0
        for got, want in zip(states, seq_states):
            np.testing.assert_array_equal(np.asarray(got.data), want)
        np.testing.assert_array_equal(np.asarray(merged._y.data),
                                      np.asarray(stepped._y.data))
        assert merged._t == stepped._t
        # The merged path pays the per-solve overhead once, never more
        # RHS work than the stepped loop.
        assert nfev <= seq_nfev

    def test_taus_behind_frontier_answer_with_frontier_state(self, rng):
        payload = make_payload(rng)
        session = fed_session(tiny_model(), payload)
        session._advance(0.8)
        frontier = np.array(session._y.data, copy=True)
        states, nfev = session._advance_many([0.1, 0.5])
        assert nfev == 0
        for state in states:
            np.testing.assert_array_equal(np.asarray(state.data), frontier)


class TestPredictTimes:
    def test_matches_offline_solve(self, model, rng):
        payload = make_payload(rng, n_queries=5)
        session = fed_session(model, payload)
        preds, nfev = session.predict_times(payload["query_times"])
        assert nfev > 0
        ref = offline_predictions(model, payload)
        np.testing.assert_array_less(np.abs(preds - ref),
                                     tolerance_band(model, ref) + 1e-300)

    def test_unsorted_and_duplicate_queries_keep_request_order(self, rng):
        payload = make_payload(rng)
        session = fed_session(tiny_model(), payload)
        q = [0.9, 0.3, 0.9, 0.6]
        preds, _ = session.predict_times(q)
        assert preds.shape == (4, 1)
        np.testing.assert_array_equal(preds[0], preds[2])
        sorted_preds, _ = fed_session(tiny_model(),
                                      payload).predict_times(sorted(q))
        order = np.argsort(q, kind="stable")
        np.testing.assert_allclose(preds[order][1:], sorted_preds[1:],
                                   rtol=1e-9, atol=1e-12)

    def test_behind_frontier_queries_leave_frontier_untouched(self, rng):
        payload = make_payload(rng)
        session = fed_session(tiny_model(), payload)
        session.predict_times([0.9])
        frontier_t, frontier_y = session._t, np.array(session._y.data,
                                                      copy=True)
        preds, nfev = session.predict_times([0.1, 0.4])
        assert nfev > 0                     # read-only auxiliary solve
        assert session._t == frontier_t
        np.testing.assert_array_equal(np.asarray(session._y.data),
                                      frontier_y)
        assert preds.shape == (2, 1)

    def test_empty_query_list(self, model, rng):
        session = fed_session(model, make_payload(rng))
        preds, nfev = session.predict_times([])
        assert preds.shape == (0, 1) and nfev == 0

    def test_negative_query_rejected(self, model, rng):
        session = fed_session(model, make_payload(rng))
        with pytest.raises(ValueError, match=">= 0"):
            session.predict_times([-0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_query_rejected(self, model, rng, bad):
        session = fed_session(model, make_payload(rng))
        with pytest.raises(ValueError, match="query times must be finite"):
            session.predict_times([0.4, bad])

    def test_warming_up_session_raises(self, model):
        session = model.open_stream()
        session.ingest(0.1, np.zeros(1))
        with pytest.raises(RuntimeError, match="warming up"):
            session.predict_times([0.5])

    def test_classification_session_rejected(self):
        clf = DiffODE(DiffODEConfig(input_dim=1, latent_dim=4, hidden_dim=8,
                                    num_heads=1, use_hippo=False,
                                    method="dopri5", num_classes=2, seed=0))
        session = clf.open_stream()
        with pytest.raises(NotImplementedError, match="regression"):
            session.predict_times([0.5])


class TestIngestBehindFrontier:
    def test_late_observation_resets_and_stays_in_band(self, model, rng):
        """An observation behind the advanced frontier restarts the solve
        from t=0; later answers must match the offline solve over the
        full (now longer) series."""
        payload = make_payload(rng, n_obs=8, t_max=0.5)
        session = fed_session(model, payload)
        session.predict_times([0.9])        # frontier well past t_max
        late_t = 0.55
        late_v = np.array([0.3])
        session.ingest(late_t, late_v)
        assert session._t == 0.0 and session._resume is None

        grown = dict(payload)
        grown["times"] = payload["times"] + [late_t]
        grown["values"] = payload["values"] + [late_v.tolist()]
        grown["query_times"] = [0.7, 1.0]
        preds, _ = session.predict_times(grown["query_times"])
        ref = offline_predictions(model, grown)
        np.testing.assert_array_less(np.abs(preds - ref),
                                     tolerance_band(model, ref) + 1e-300)


class TestMaxLen:
    def test_observation_past_max_len_is_rejected_untouched(self, rng):
        model = tiny_model(max_len=8)
        session = fed_session(model, make_payload(rng, n_obs=8))
        with pytest.raises(RuntimeError, match="max_len=8"):
            session.ingest(0.9, np.zeros(1))
        assert session.n_obs == len(session._z_rows) == 8


def carry_model(encoder: str) -> DiffODE:
    return DiffODE(DiffODEConfig(
        input_dim=2, latent_dim=4, hidden_dim=8, num_heads=1,
        use_hippo=False, method="dopri5", encoder=encoder, out_dim=1,
        num_classes=None, max_len=48, seed=1))


def assert_close(got, want):
    """Within 1e-12 of the largest reference magnitude."""
    want = np.asarray(want)
    np.testing.assert_allclose(np.asarray(got), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("encoder", ["gru", "mlp"])
class TestEncoderCarry:
    """A session's row-by-row encoder carry matches the model's
    whole-series encoder, whichever way the session was seeded.  The
    latent rows may differ in the last bits only: the projection runs on
    (1, n, H) at once against (1, 1, H) per row."""

    def test_row_by_row_matches_whole_series(self, encoder, rng):
        model = carry_model(encoder)
        payload = make_payload(rng, n_obs=12, input_dim=2)
        session = fed_session(model, payload)
        times = np.asarray(payload["times"])[None]
        values = np.asarray(payload["values"])[None]
        z, states = model.encode_carry(values, times)
        assert_close(np.concatenate(session._z_rows), z.data[0])
        if encoder == "gru":
            np.testing.assert_array_equal(session._enc_h.data,
                                          states.data[:, -1])
        else:
            assert states is None and session._enc_h is None

    def test_seeded_session_grows_like_a_fed_one(self, encoder, rng):
        model = carry_model(encoder)
        engine = InferenceEngine(model)
        payloads = [make_payload(rng, series_id=f"s{i}", n_obs=8 + 2 * i,
                                 input_dim=2) for i in range(3)]
        assert all(r["ok"] for r in engine.execute(payloads))
        extra = rng.normal(size=(3, 2))
        for payload in payloads:
            seeded = engine.cache.lookup(
                payload["series_id"], np.asarray(payload["times"]),
                np.asarray(payload["values"]), engine.model_version).session
            fed = fed_session(model, payload)
            t_last = payload["times"][-1]
            for k, row in enumerate(extra):
                for session in (seeded, fed):
                    session.ingest(t_last + 0.05 * (k + 1), row)
            assert seeded.n_obs == fed.n_obs == len(payload["times"]) + 3
            assert_close(np.concatenate(seeded._z_rows),
                         np.concatenate(fed._z_rows))
            if encoder == "gru":
                assert_close(seeded._enc_h.data, fed._enc_h.data)
            else:
                assert seeded._enc_h is None and fed._enc_h is None
