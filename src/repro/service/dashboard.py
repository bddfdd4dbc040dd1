"""The live dashboard served at ``GET /``: one static HTML page.

Deliberately primitive — a single self-contained document (no build
step, no bundler, no external assets) whose inline script polls the
endpoints the plane already exposes: ``/metrics`` for throughput,
snapshot age and the error-budget ratio, and ``/v1/traces`` for
the recent-trace table.  Everything a browser shows here is equally
reachable with curl; the page is a convenience, not an API.

Throughput is computed client-side as the delta of
``repro_ingest_tokens_total`` between polls, so the server keeps no
extra state for the dashboard.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro heavy-hitters service</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem;
         background: #111; color: #ddd; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; color: #9cf; }
  .cards { display: flex; flex-wrap: wrap; gap: 1rem; }
  .card { border: 1px solid #333; border-radius: 6px; padding: 0.8rem 1.2rem;
          min-width: 11rem; background: #1a1a1a; }
  .card .value { font-size: 1.5rem; margin-top: 0.3rem; }
  .card .label { color: #888; font-size: 0.75rem; text-transform: uppercase; }
  .ok { color: #7f7; } .warn { color: #fc6; } .bad { color: #f66; }
  table { border-collapse: collapse; margin-top: 0.5rem; width: 100%; }
  th, td { border-bottom: 1px solid #2a2a2a; padding: 0.25rem 0.6rem;
           text-align: left; font-size: 0.8rem; }
  th { color: #888; font-weight: normal; }
  #error { color: #f66; }
</style>
</head>
<body>
<h1>repro heavy-hitters service <span id="ready"></span></h1>
<div id="error"></div>
<div class="cards">
  <div class="card"><div class="label">ingest throughput</div>
    <div class="value" id="throughput">&ndash;</div></div>
  <div class="card"><div class="label">tokens total</div>
    <div class="value" id="tokens">&ndash;</div></div>
  <div class="card"><div class="label">snapshot age</div>
    <div class="value" id="snapage">&ndash;</div></div>
  <div class="card"><div class="label">error budget ratio</div>
    <div class="value" id="budget">&ndash;</div></div>
  <div class="card"><div class="label">observed error p95</div>
    <div class="value" id="errp95">&ndash;</div></div>
</div>
<h2>recent traces</h2>
<table>
  <thead><tr><th>trace</th><th>op</th><th>total ms</th><th>stages</th></tr></thead>
  <tbody id="traces"><tr><td colspan="4">no traces sampled yet</td></tr></tbody>
</table>
<script>
"use strict";
let lastTokens = null, lastPoll = null;

// Minimal exposition parser: enough for unlabelled and labelled gauges.
function parseMetrics(text) {
  const samples = [];
  for (const line of text.split("\\n")) {
    if (!line || line.startsWith("#")) continue;
    const space = line.lastIndexOf(" ");
    if (space < 0) continue;
    const name = line.slice(0, space), value = parseFloat(line.slice(space + 1));
    samples.push({ name: name, value: value });
  }
  return samples;
}
function find(samples, prefix) {
  return samples.filter(function (s) { return s.name.startsWith(prefix); });
}
function fmt(x, digits) {
  return x === null || x === undefined || !isFinite(x)
    ? "\\u2013" : x.toFixed(digits === undefined ? 1 : digits);
}
async function poll() {
  try {
    const [metricsResp, tracesResp, readyResp] = await Promise.all([
      fetch("/metrics"), fetch("/v1/traces?limit=15"), fetch("/readyz")]);
    document.getElementById("ready").textContent =
      readyResp.ok ? "\\u25cf ready" : "\\u25cb not ready";
    document.getElementById("ready").className = readyResp.ok ? "ok" : "bad";
    const samples = parseMetrics(await metricsResp.text());
    const tokens = find(samples, "repro_ingest_tokens_total")
      .reduce(function (a, s) { return a + s.value; }, 0);
    const now = performance.now();
    if (lastTokens !== null && now > lastPoll) {
      const rate = (tokens - lastTokens) / ((now - lastPoll) / 1000);
      document.getElementById("throughput").textContent = fmt(rate, 0) + " tok/s";
    }
    lastTokens = tokens; lastPoll = now;
    document.getElementById("tokens").textContent = fmt(tokens, 0);
    const age = find(samples, "repro_snapshot_age_seconds")[0];
    document.getElementById("snapage").textContent =
      age ? fmt(age.value, 1) + " s" : "never";
    const budget = find(samples, "repro_error_budget_ratio")[0];
    const budgetCell = document.getElementById("budget");
    budgetCell.textContent = budget ? fmt(budget.value, 4) : "\\u2013";
    budgetCell.className =
      "value " + (budget && budget.value >= 1 ? "bad"
                  : budget && budget.value >= 0.5 ? "warn" : "ok");
    const p95 = find(samples, 'repro_observed_error{quantile="0.95"}')[0];
    document.getElementById("errp95").textContent = p95 ? fmt(p95.value, 2) : "\\u2013";
    if (tracesResp.ok) {
      const traces = (await tracesResp.json()).traces || [];
      const body = document.getElementById("traces");
      body.innerHTML = "";
      if (!traces.length) {
        body.innerHTML = "<tr><td colspan=4>no traces sampled yet</td></tr>";
      }
      for (const t of traces) {
        const row = document.createElement("tr");
        const stages = (t.spans || []).map(function (s) {
          return s.name + " " + (s.seconds * 1000).toFixed(2) + "ms";
        }).join(" \\u2192 ");
        const cells = [t.trace_id.slice(0, 12), t.op,
          t.duration_seconds === undefined ? "\\u2026"
            : (t.duration_seconds * 1000).toFixed(2), stages];
        for (const value of cells) {
          const cell = document.createElement("td");
          cell.textContent = value;
          row.appendChild(cell);
        }
        body.appendChild(row);
      }
    }
    document.getElementById("error").textContent = "";
  } catch (err) {
    document.getElementById("error").textContent = "poll failed: " + err;
  }
}
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""
