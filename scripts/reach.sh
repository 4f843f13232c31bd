#!/usr/bin/env bash
# reach.sh lists the internal/ functions that no shipped entry point runs.
#
# It builds every cmd/ binary with coverage instrumentation over the whole
# module, drives them through a fixed argv matrix (the experiment suite,
# E2's beta sweep paired, the simulator's comparison tables on every model,
# streamed FlowMix runs on CIOQ and the crossbar, a trace round trip, and
# sharded experiments, a checkpoint resume, a CI-target run and two hunts
# over worker processes),
# and prints every internal/ function that executed no statement.
# GOCOVERDIR is exported, so worker subprocesses report too. Functions with
# no statements (empty IdleAdvance bodies) are left out: they always read
# 0 %. Functions matched by scripts/reach.allow are kept on purpose; they
# are printed with the allow-list's reason.
#
# Usage: bash scripts/reach.sh
#
# The script only reports. It exits 0 unless a build fails.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov"

for dir in cmd/*/; do
	name=$(basename "$dir")
	if ! go build -cover -coverpkg=qswitch/... -o "$bin/$name" "./$dir"; then
		echo "reach: building ./$dir failed" >&2
		exit 1
	fi
done

export GOCOVERDIR=$work/cov
run() {
	"$@" >/dev/null 2>&1 || echo "reach: exit $? from: ${*#"$bin"/}" >&2
}

run "$bin/switchbench" -all -quick -csv "$work/csv"
run "$bin/switchbench" -run e2 -quick -paired
for model in cioq crossbar; do
	run "$bin/switchsim" -model "$model" -compare -values uniform -load 1.3 -slots 200 -seed 12
done
run "$bin/switchsim" -model oq -values uniform -load 1.3 -slots 200 -seed 12
run "$bin/switchsim" -model cioq -compare -ub -values zipf -load 1.1 -slots 200
run "$bin/switchsim" -model crossbar -compare -ub -values uniform -load 1.2 -slots 200
run "$bin/switchsim" -model crossbar -compare -n 128 -slots 50 -load 0.5
run "$bin/switchsim" -model cioq -compare -n 128 -values uniform -load 1.3 -slots 50
run "$bin/switchsim" -model cioq -traffic flowmix -values zipf -stream -latency -n 16 -slots 20000
run "$bin/switchsim" -model crossbar -policy cpg -traffic flowmix -values zipf -stream -latency -n 16 -slots 20000
run "$bin/tracegen" -traffic bursty -values zipf -n 8 -slots 400 -o "$work/trace.bin"
run "$bin/tracegen" -inspect "$work/trace.bin"
run "$bin/tracegen" -convert "$work/trace.bin" -json "$work/trace.json"
run "$bin/switchsim" -model cioq -policy pg -trace "$work/trace.bin" -stream
run "$bin/switchsim" -model crossbar -policy cpg -trace "$work/trace.bin" -latency
run "$bin/qswitchd" </dev/null
run "$bin/qswitchctl" -workers 2 -run e1,e2,e3,e4 -quick -checkpoint "$work/ckpt"
run "$bin/qswitchctl" -workers 2 -run e1,e2,e3,e4 -quick -checkpoint "$work/ckpt"
run "$bin/qswitchctl" -workers 2 -run e1 -quick -ci-target 0.05
run "$bin/qswitchctl" -workers 2 -hunt gm -restarts 4 -iterations 60
run "$bin/qswitchctl" -workers 2 -hunt cgu -crossbar -restarts 4 -iterations 60
unset GOCOVERDIR

go tool covdata textfmt -i="$work/cov" -o="$work/profile.txt" || exit 1
go tool cover -func="$work/profile.txt" >"$work/func.txt" || exit 1

# Pass 1 reads the profile's blocks ("file:l0.c0,l1.c1 stmts count") and
# pass 2 the per-function report ("file:line: name pct"). A block belongs
# to the function in its file with the largest start line at or before it;
# functions that own no statement are skipped.
awk -v allowfile="scripts/reach.allow" -v countfile="$work/count" '
	BEGIN {
		while ((getline line < allowfile) > 0) {
			sub(/#.*/, "", line)
			if (split(line, fld, /[ \t]+/) < 1 || fld[1] == "") continue
			pat[++npat] = fld[1]
			why[npat] = line
			sub(/^[^ \t]+[ \t]+/, "", why[npat])
		}
	}
	FNR == NR {
		if ($0 ~ /^mode:/) next
		split($1, loc, ":")
		split(loc[2], se, ".")
		if ($2 > 0) { nb++; bfile[nb] = loc[1]; bline[nb] = se[1] + 0 }
		next
	}
	$1 != "total:" {
		split($1, loc, ":")
		file = loc[1]; start = loc[2] + 0
		nf[file]++
		fstart[file, nf[file]] = start
		fname[file, nf[file]] = $2
		fpct[file, nf[file]] = $3
	}
	END {
		for (b = 1; b <= nb; b++) {
			f = bfile[b]; best = 0
			for (k = 1; k <= nf[f]; k++)
				if (fstart[f, k] <= bline[b] && (best == 0 || fstart[f, k] > fstart[f, best])) best = k
			if (best) stmts[f, best] = 1
		}
		for (f in nf) for (k = 1; k <= nf[f]; k++) {
			if (f !~ /^qswitch\/internal\// || fpct[f, k] != "0.0%" || !((f, k) in stmts)) continue
			id = substr(f, 9) ":" fname[f, k]
			reason = ""
			for (p = 1; p <= npat; p++) if (index(id, pat[p]) == 1) { reason = why[p]; break }
			if (reason != "") { allowed++; print id "\t(allowed: " reason ")" }
			else { open++; print id }
		}
		printf "%d unexecuted internal/ functions: %d allowed, %d without a verdict\n", allowed + open, allowed, open > countfile
	}
' "$work/profile.txt" "$work/func.txt" | sort
cat "$work/count"
exit 0
