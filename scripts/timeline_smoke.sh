#!/usr/bin/env bash
# Timeline smoke test, as run by CI's timeline-smoke job: build tmserve,
# boot a 2-tenant fleet whose tenants are scripted timelines
# (scenario:script:<file>) driving one full failure + restore cycle,
# and gate on zero tenant errors plus a recovered snapshot — every
# tenant finishing on topology epoch 2 (link failed, then restored)
# with a served full re-solve.
set -euo pipefail

cd "$(dirname "$0")/.."
smoke_name="timeline-smoke"
. scripts/lib.sh

addr="127.0.0.1:${TIMELINE_SMOKE_PORT:-17482}"
base="http://$addr"

build_tmserve

# The committed failure+reroute script: 30 intervals, one adjacency
# fails at interval 8 and is restored at 20. Two tenants share the
# script at different seeds; ~20ms pace puts one full cycle around 600ms
# and the whole job well under 10s.
cp examples/timelines/failure_reroute.json "$workdir/failover.json"

cat > "$workdir/fleet.json" <<JSON
{
  "format": 1,
  "tenants": [
    {"name": "tl-a", "source": "scenario:script:$workdir/failover.json", "seed": 1, "cycles": 1, "pace": "20ms", "window": 6, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5},
    {"name": "tl-b", "source": "scenario:script:$workdir/failover.json", "seed": 2, "cycles": 1, "pace": "20ms", "window": 6, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5}
  ]
}
JSON
names=(tl-a tl-b)

say "booting 2-tenant scripted fleet"
start_tmserve "$base" -fleet "$workdir/fleet.json" -addr "$addr"

tenant_recovered() {
  local snap interval epoch resolve
  snap=$(curl -sf "$base/v1/t/$1/snapshot" 2>/dev/null) || return 1
  interval=$(echo "$snap" | jq -r '.interval // -1')
  epoch=$(echo "$snap" | jq -r '.topology_epoch // 0')
  resolve=$(echo "$snap" | jq -r '.resolve != null')
  [ "$interval" = "29" ] && [ "$epoch" = "2" ] && [ "$resolve" = "true" ]
}
both_recovered() {
  tenant_recovered tl-a && tenant_recovered tl-b
}

say "waiting for both timelines to ride through failure + restore"
wait_for 240 "both timelines recovered" both_recovered || true

for name in "${names[@]}"; do
  snap=$(curl -sf "$base/v1/t/$name/snapshot")
  interval=$(echo "$snap" | jq -r .interval)
  epoch=$(echo "$snap" | jq -r .topology_epoch)
  warm=$(echo "$snap" | jq -r .resolve_warm)
  resolve=$(echo "$snap" | jq -r '.resolve != null')
  if [ "$interval" != "29" ] || [ "$epoch" != "2" ] || [ "$resolve" != "true" ]; then
    say "tenant $name never recovered: interval=$interval epoch=$epoch resolve=$resolve"
    curl -s "$base/v1/tenants" | jq .
    exit 1
  fi
  say "tenant $name: interval $interval, epoch $epoch, resolve served (warm=$warm)"
done

# Zero tenant errors: every tenant serving, none failed, fleet healthy.
errors=$(curl -sf "$base/v1/tenants" | jq '[.tenants[] | select(.state == "failed" or (.error // "") != "")] | length')
if [ "$errors" != "0" ]; then
  say "tenants reported errors"; curl -s "$base/v1/tenants" | jq .; exit 1
fi
ok=$(curl -sf "$base/healthz" | jq -r .ok)
if [ "$ok" != "true" ]; then
  say "fleet unhealthy after the cycle"; exit 1
fi

say "PASS"
