"""Tests for the live accuracy auditor.

The auditor's claims are strong -- mirrored counts are *exact* true
frequencies, and ``budget_ratio >= 1`` certifies a guarantee violation
-- so the tests exercise both the mechanism (deterministic fingerprint
membership, adaptive shrink) and the acceptance criterion: on a Zipf
stream the observed error stays inside the paper's k-tail bound
(error-budget ratio < 1).
"""

import collections
import dataclasses

import pytest

from repro.core.merging import DisjointUnion
from repro.core.tail_guarantee import TailGuarantee
from repro.metrics.error import residual
from repro.engine.codec import TokenCodec
from repro.service import ServiceConfig, parse_exposition, serve_http
from repro.service.audit import AccuracyAuditor
from repro.service.server import HeavyHittersService
from repro.streams.generators import zipf_stream


def _chunks(tokens, size=4096, weights=None):
    codec = TokenCodec()
    chunks = []
    for start in range(0, len(tokens), size):
        batch_weights = (
            weights[start : start + size] if weights is not None else None
        )
        chunks.append(codec.encode_chunk(tokens[start : start + size], batch_weights))
    return chunks


class TestDeterministicMirror:
    def test_rate_one_mirrors_exactly(self):
        auditor = AccuracyAuditor(rate=1.0)
        tokens = ["a", "b", "a", "c", "a", "b"]
        for chunk in _chunks(tokens):
            auditor.observe_chunk(chunk)
        assert auditor.items_audited == 3
        assert auditor._counts == collections.Counter(tokens)
        assert auditor.sampled_weight == 6.0

    def test_membership_is_by_item_not_occurrence(self):
        """A sampled item has every occurrence mirrored, across chunks."""
        auditor = AccuracyAuditor(rate=0.25)
        tokens = [f"item-{i}" for i in range(400)] * 3
        for chunk in _chunks(tokens, size=128):
            auditor.observe_chunk(chunk)
        # Every mirrored count must be the item's exact total frequency.
        assert auditor.items_audited > 0
        assert all(count == 3.0 for count in auditor._counts.values())

    def test_weighted_occurrences_accumulate(self):
        auditor = AccuracyAuditor(rate=1.0)
        for chunk in _chunks(["x", "y", "x"], weights=[2.0, 1.5, 3.0]):
            auditor.observe_chunk(chunk)
        assert auditor._counts == {"x": 5.0, "y": 1.5}

    def test_shrink_preserves_exactness(self):
        auditor = AccuracyAuditor(rate=1.0, max_items=50)
        tokens = [f"k-{i}" for i in range(500)] * 2
        for chunk in _chunks(tokens, size=64):
            auditor.observe_chunk(chunk)
        assert auditor.items_audited <= 50
        assert auditor.sample_rate < 1.0
        # Survivors were members under every prior threshold, so their
        # counts are still exact totals.
        assert all(count == 2.0 for count in auditor._counts.values())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AccuracyAuditor(rate=0.0)
        with pytest.raises(ValueError):
            AccuracyAuditor(rate=1.5)
        with pytest.raises(ValueError):
            AccuracyAuditor(max_items=0)


class TestAuditAgainstBound:
    def _service(self, **overrides):
        defaults = dict(
            num_counters=256, num_shards=2, k=10, audit_rate=1.0 / 8.0,
            trace_sample_rate=0.0,
        )
        defaults.update(overrides)
        return HeavyHittersService(ServiceConfig(**defaults)).start()

    def test_error_budget_ratio_under_one_on_zipf(self):
        """The acceptance criterion: observed error <= theoretical bound."""
        stream = zipf_stream(num_items=5_000, alpha=1.2, total=40_000, seed=3)
        service = self._service()
        try:
            for start in range(0, len(stream.items), 4_096):
                response = service.handle(
                    {"op": "ingest", "items": stream.items[start : start + 4_096]}
                )
                assert response["ok"]
            service.sharded.flush()
            response = service.handle({"op": "audit"})
            assert response["ok"], response
            assert response["items_audited"] > 100
            assert response["bound"] is not None and response["bound"] > 0.0
            # SpaceSaving never violates its guarantee, and the audit's
            # residual is an upper bound, so the ratio must sit below 1.
            assert 0.0 <= response["budget_ratio"] < 1.0
            assert response["observed_error"]["1.0"] <= response["bound"]
        finally:
            service.close()

    def test_error_between_owner_and_merged_envelopes_alarms(self):
        """The envelope is the snapshot's own (1, 1) bound: an error above
        it but inside the Theorem 11 (3, 2) envelope reads >= 1."""
        stream = zipf_stream(num_items=2_000, alpha=1.1, total=20_000, seed=8)
        service = self._service(audit_rate=1.0, num_counters=128)
        try:
            service.handle({"op": "ingest", "items": stream.items})
            snapshot = service.snapshots.refresh(drain=True)
            exact = collections.Counter(stream.items)
            k, m = snapshot.k, snapshot.estimator.num_counters
            res = residual(exact, k)
            owner = TailGuarantee(1.0, 1.0).bound(res, m, k)
            merged = TailGuarantee(3.0, 2.0).bound(res, m, k)
            # Push the hottest item's owner-shard count between the envelopes.
            hottest = exact.most_common(1)[0][0]
            parts = [part.copy() for part in snapshot.estimator.parts]
            owner_part = next(part for part in parts if hottest in part)
            target = exact[hottest] + (owner + merged) / 2.0
            owner_part.update(hottest, target - owner_part.estimate(hottest))
            perturbed = dataclasses.replace(
                snapshot,
                merge=dataclasses.replace(snapshot.merge, estimator=DisjointUnion(parts)),
            )
            report = service.auditor.run_audit(perturbed)
            assert report.residual_upper == pytest.approx(res)
            assert owner < report.observed_error[1.0] < merged
            assert report.budget_ratio >= 1.0
            # Under the merged constants snapshots used to carry, the same
            # error hides inside the envelope.
            merged_era = dataclasses.replace(
                perturbed,
                merge=dataclasses.replace(
                    perturbed.merge, merged_constants=TailGuarantee(3.0, 2.0)
                ),
            )
            assert service.auditor.run_audit(merged_era).budget_ratio < 1.0
        finally:
            service.close()

    def test_observed_errors_are_true_deltas(self):
        """At audit rate 1.0 every observed error is the exact delta_i."""
        stream = zipf_stream(num_items=800, alpha=1.1, total=8_000, seed=5)
        service = self._service(audit_rate=1.0, num_counters=128)
        try:
            service.handle({"op": "ingest", "items": stream.items})
            service.sharded.flush()
            snapshot = service.snapshots.refresh(drain=True)
            report = service.auditor.run_audit(snapshot)
            exact = collections.Counter(stream.items)
            assert report.items_audited == len(exact)
            expected_max = max(
                abs(snapshot.estimate(item) - count)
                for item, count in exact.items()
            )
            assert report.observed_error[1.0] == pytest.approx(expected_max)
        finally:
            service.close()

    def test_report_is_cached_between_intervals(self):
        auditor = AccuracyAuditor(rate=1.0, interval=3600.0)
        service = self._service(audit_rate=1.0)
        try:
            service.handle({"op": "ingest", "items": ["a", "b"]})
            service.sharded.flush()
            snapshot = service.snapshots.refresh(drain=True)
            first = service.auditor.report(snapshot, max_age=3600.0)
            second = service.auditor.report(snapshot, max_age=3600.0)
            assert first is second  # cached object, not a re-audit
            third = service.auditor.report(snapshot, max_age=0.0)
            assert third is not second
            del auditor
        finally:
            service.close()

    def test_audit_op_errors_when_disabled(self):
        service = self._service(audit_rate=0.0)
        try:
            response = service.handle({"op": "audit"})
            assert not response["ok"] and "audit" in response["error"]
        finally:
            service.close()

    def test_auditor_disabled_after_recovery_restore(self, tmp_path):
        from repro.service.recovery import resume_service

        config = ServiceConfig(
            num_counters=64,
            num_shards=1,
            wal_dir=str(tmp_path / "wal"),
            audit_rate=1.0,
            trace_sample_rate=0.0,
        )
        first = HeavyHittersService(config).start()
        first.handle({"op": "ingest", "items": ["a"] * 5})
        first.wal.sync()
        first.sharded.close()  # crash: no checkpoint, no close()

        recovered, result = resume_service(config)
        try:
            assert result is not None and result.tokens_replayed == 5
            # The mirror never saw the replayed history, so comparisons
            # would be skewed: the auditor must be off.
            assert recovered.auditor is None
            recovered.start()
            response = recovered.handle({"op": "audit"})
            assert not response["ok"]
        finally:
            recovered.close()


class TestAuditMetrics:
    def test_observed_error_and_budget_ratio_exported(self):
        service = HeavyHittersService(
            ServiceConfig(
                num_counters=256, num_shards=1, k=5, audit_rate=1.0,
                trace_sample_rate=0.0,
            )
        ).start()
        http = serve_http(port=0, service=service)
        try:
            stream = zipf_stream(num_items=500, alpha=1.2, total=5_000, seed=1)
            service.handle({"op": "ingest", "items": stream.items})
            service.sharded.flush()
            service.snapshots.refresh(drain=True)
            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{http.port}/metrics"
            ) as response:
                exposition = response.read().decode("utf-8")
            families = parse_exposition(exposition)
            errors = families["repro_observed_error"]
            quantiles = {labels[0][1] for labels in errors}
            assert quantiles == {"0.5", "0.95", "1.0"}
            ratio = next(iter(families["repro_error_budget_ratio"].values()))
            assert 0.0 <= ratio < 1.0
            # At audit rate 1.0 the mirror holds every distinct item seen.
            distinct = float(len(set(stream.items)))
            assert next(iter(families["repro_audit_items"].values())) == distinct
        finally:
            http.close()
            service.close()

    def test_scrape_survives_auditor_detachment(self):
        service = HeavyHittersService(
            ServiceConfig(num_counters=64, num_shards=1, audit_rate=1.0)
        ).start()
        try:
            service.handle({"op": "ingest", "items": ["a"]})
            service.auditor = None  # what restore() does
            exposition = service.metrics.render()
            assert "repro_observed_error" in exposition  # family, no samples
            assert "repro_metrics_scrape_errors_total 0" in exposition
        finally:
            service.close()
