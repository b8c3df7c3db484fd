#!/usr/bin/env bash
# Run every demo config through the fracdyn CLI into demos/output/.
# Each line is "<command> <config stem>"; artifacts land next to a
# matching name so the README's pointers stay valid.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p output

# A source checkout without an install runs the package from ../src.
if command -v fracdyn >/dev/null 2>&1; then
    fracdyn=(fracdyn)
else
    export PYTHONPATH="$(cd ../src && pwd)${PYTHONPATH:+:$PYTHONPATH}"
    fracdyn=(python3 -m fracdyn.cli)
fi

run() {
    echo "== fracdyn $1 --config configs/$2.json"
    "${fracdyn[@]}" "$1" --config "configs/$2.json" --out "output/$2.csv" "${@:3}"
}

run exact exact_short_time
run exact exact_ohmic_tail
run exact exact_super_ohmic_plateau
run markov markov_vs_exact
run fracfit fracfit_sub_ohmic
run fracfit fracfit_super_ohmic
run subordinate subordinate_mc --threads 4
run solve solver_convergence
run solve solver_soe_trajectory

echo "All artifacts written to $(pwd)/output/"
