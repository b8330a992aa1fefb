#!/bin/sh
# Local mirror of .github/workflows/ci.yml: tier-1 tests, the CLI's
# --check gates, and both perfbench workloads with every oracle passing.
# Writes no tracked file.
set -eux

dune build
dune runtest

# Compiled dataplane gates: the engine must agree with the interpreter
# (outputs and final state) and its counter JSON must be well-formed.
dune exec bin/nfactor_cli.exe -- run -n 5000 --check snort
dune exec bin/nfactor_cli.exe -- run -n 5000 --json snort | grep -q '"index_hits"'
dune exec bin/nfactor_cli.exe -- run -n 5000 --json portknock | grep -q '"fsm_hits"'

# Sharded dataplane smoke gate: a 2-domain run must reproduce the
# single engine exactly (outputs, merged store, merged counters) on
# both random and churn traffic, and must stay fully dispatched
# (scan_hits 0 on classified NFs).
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --check nat
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --churn 500 --check portknock
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --json nat | grep -q '"scan_hits": 0'

# Pass-pipeline cache gate: synthesize and analyze the corpus twice
# through one on-disk artifact store. The cold run's store must stay
# under 1 MB (documents share terms through one table, so they grow
# with distinct terms, not tree size); the second run must be a pure
# replay (zero recomputed passes) and must reproduce byte-identical
# models.
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
dune exec bin/nfactor_cli.exe -- synth-all --cache-dir "$CACHE_DIR" --stats --json > synth_cold.json
CACHE_BYTES=$(cat "$CACHE_DIR"/* | wc -c)
echo "cache directory: $CACHE_BYTES bytes"
test "$CACHE_BYTES" -le 1048576
dune exec bin/nfactor_cli.exe -- synth-all --cache-dir "$CACHE_DIR" --stats --json > synth_warm.json
grep -q '"misses": 0' synth_warm.json
grep -q '"hit_rate_pct": 100.0' synth_warm.json
# model_md5 lines must agree between the cold and the warm run
grep '"model_md5"' synth_cold.json > cold_models.txt
grep '"model_md5"' synth_warm.json > warm_models.txt
cmp cold_models.txt warm_models.txt
rm -f synth_cold.json synth_warm.json cold_models.txt warm_models.txt

# Compiled service-chain gates: the linked 3-NF chain must reproduce
# the interpreter chain exactly (outputs, per-hop final stores) on
# random and churn traffic, a chain on the sharded dataplane must
# reproduce the single linked engine (outputs, per-hop stores, per-hop
# counters) on random and churn traffic, and the invariant verifier
# must prove a true invariant and refute a false one with a
# counterexample that replays through the compiled chain.
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --check
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --churn 2000 --check
dune exec bin/nfactor_cli.exe -- chain run snort,synguard,ips -n 20000 --shards 2 --check
dune exec bin/nfactor_cli.exe -- chain run snort,synguard,ips -n 20000 --churn 2000 --shards 2 --check
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:ip_ttl<=0" --expect proven
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:dport=80" --expect violated

# Static analyzer gates. Pre-minimization, the deliberately-redundant
# firewall must lint dirty (its dead audit branch is only visible to
# the bit-level implication lattice) and the minimizer must verify and
# shrink it, through its differential gate; an unchanged table (nat)
# verifies with no gate replay; post-minimization, every corpus NF must
# lint clean (no errors or warnings).
dune exec bin/nfactor_cli.exe -- lint firewall_redundant --expect dirty
dune exec bin/nfactor_cli.exe -- minimize firewall_redundant --check --json | grep -q '"verified": true'
dune exec bin/nfactor_cli.exe -- minimize firewall_redundant --check --json | grep -Eq '"trials": [1-9][0-9]*}'
dune exec bin/nfactor_cli.exe -- minimize nat --json | grep -q '"verified": true, "trials": 0}'
for nf in $(dune exec bin/nfactor_cli.exe -- list | awk 'NR>1 {print $1}'); do
  dune exec bin/nfactor_cli.exe -- lint "$nf" --fix --expect clean > /dev/null
done

# The repository benchmark, briefly: each workload's result line (the
# last line of its output) must report every oracle check passing.
mkdir -p perfbench/_out
for w in synth dataplane; do
  python3 perfbench/run.py --workload "$w" --seconds 5 > "perfbench/_out/ci-$w.txt"
  tail -n 1 "perfbench/_out/ci-$w.txt" > "perfbench/_out/ci-$w.json"
  python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "perfbench/_out/ci-$w.json"
done
