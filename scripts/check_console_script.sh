#!/usr/bin/env bash
# Checks the `modefisher` command found on PATH: the console script that pyproject.toml
# declares, after `pip install .`.  The tests call cli.main() in-process; this runs the
# entry point as a user does, importing modefisher.cli on top of the lazy package.
#
#     bash scripts/check_console_script.sh
#
# It writes its input and output files into the current directory.  A failing
# `a && b` does not stop a `set -e` script, so each check is a command of its own.
set -e
trap 'echo "check failed at line $LINENO: $BASH_COMMAND" >&2' ERR

modefisher selftest
modefisher frames --n 2
# writes a CSV report
modefisher frames --n 2 --format csv

# A reader that closes the pipe early ends the process quietly with exit 141: buffered,
# unbuffered with a JSON report larger than a pipe holds, and on a usage error, whose
# report is written while argv is parsed.
modefisher frames --n 60 --format csv 2>err.txt | head -1 >/dev/null; test "${PIPESTATUS[0]}" -eq 141
test ! -s err.txt
PYTHONUNBUFFERED=1 modefisher frames --n 60 2>err.txt | head -c 10 >/dev/null; test "${PIPESTATUS[0]}" -eq 141; test ! -s err.txt
(sleep 1; exec modefisher frames --n x) 2>err.txt | true; test "${PIPESTATUS[0]}" -eq 141
# `set -e` ignores a command negated with `!`, so a found line fails through `false`
if grep -q -e Traceback -e "Exception ignored" err.txt; then false; fi

# a bad tolerance, by option or by MODEFISHER_TOL, exits 2
code=0; modefisher selftest --tol=nan || code=$?; test "$code" -eq 2
code=0; modefisher selftest --tol=0 || code=$?; test "$code" -eq 2
code=0; MODEFISHER_TOL=abc modefisher selftest || code=$?; test "$code" -eq 2

# a density matrix that is not positive exits 2, naming positivity
echo '{"N": 1, "kind": "density", "rho_re": [[1.2, 0], [0, -0.2]], "rho_im": [[0, 0], [0, 0]]}' > rho.json
code=0; modefisher qfi --state rho.json --direction 1,0,0 > out.json || code=$?
test "$code" -eq 2
grep -q positivity out.json

# a finite classical Cramer-Rao bound for twin-Fock N = 4 at theta = 0 and 1e-8, where
# every outcome but one has p_m = 0 or nearly so
echo '{"N": 4, "kind": "fock", "k": 2}' > twin4.json
modefisher sweep --state twin4.json --direction 1,0,0 --param theta --values 0,1e-8 --trials 0 > sweep.json
python -c "import json, math, sys; rows = json.load(open('sweep.json'))['rows']; sys.exit(not all(math.isfinite(r['ccrb']) for r in rows))"

# twin-Fock N = 2 estimated next to a window edge, where many maxima sit on the edge
echo '{"N": 2, "kind": "fock", "k": 1}' > twin2.json
modefisher estimate --state twin2.json --direction 1,0,0 --theta 0.02 --trials 40 --shots 2000 > edge.json
python -c "import json, math, sys; est = json.load(open('edge.json'))['estimates']; sys.exit(not all(math.isfinite(e) for e in est))"

# an estimate about an axis 1e-9 from +z, where p moves less than the log-likelihood's
# rounding resolves, exits 2
echo '{"N": 2, "kind": "pure", "amplitudes_re": [0.6, 0, 0], "amplitudes_im": [0, 0.8, 0]}' > pole.json
code=0; modefisher estimate --state pole.json --direction 1e-9,0,1 --theta 0.6 --trials 20 --shots 2000 > flat.json || code=$?
test "$code" -eq 2
grep -q NonIdentifiableError flat.json

# a phi sweep keeps all three rows when one value (phi = 0, about the state's own axis)
# cannot be estimated
echo '{"N": 2, "kind": "pure", "amplitudes_re": [0.5, 0.7071067811865476, 0.5], "amplitudes_im": [0, 0, 0]}' > coherent.json
modefisher sweep --state coherent.json --param phi --values 0,0.5,1.0 --trials 20 --shots 2000 > phi.json
python -c "import json, sys; sys.exit(len(json.load(open('phi.json'))['rows']) != 3)"

# a state file with N = 2.5 exits 2, naming N
echo '{"N": 2.5, "kind": "fock", "k": 1}' > half.json
code=0; modefisher qfi --state half.json --direction 1,0,0 > half_out.json || code=$?
test "$code" -eq 2
grep -q "N must be an integer" half_out.json

# the spectral sum and the closed form agree to 1e-12 (relative) on a Gaussian-diagonal
# N = 400 state, whose tail probabilities fall far below 1e-12
python -c "
import json, numpy as np
k = np.arange(401)
p = np.exp(-(k - 200) ** 2 / 800)
json.dump({'N': 400, 'kind': 'diagonal', 'p': (p / p.sum()).tolist()}, open('gauss400.json', 'w'))
"
modefisher qfi --state gauss400.json --direction 1,0,0 --method both > gauss_both.json
python -c "
import json, sys
r = json.load(open('gauss_both.json'))
sys.exit(abs(r['fisher_spectral'] - r['fisher_closed_form']) > 1e-12 * r['fisher_closed_form'])
"

# a state whose frame is null, and a frame file holding null, exit 2 with the JSON error
# and nothing on stderr, so no traceback
echo '{"N": 2, "kind": "fock", "k": 1, "frame": null}' > null_frame_state.json
code=0; modefisher qfi --state null_frame_state.json --direction 1,0,0 > null_out.json 2>err.txt || code=$?
test "$code" -eq 2
grep -q "frame must be a JSON object" null_out.json
test ! -s err.txt
echo 'null' > null_frame.json
code=0; modefisher frames --n 2 --frame null_frame.json > null_out.json 2>err.txt || code=$?
test "$code" -eq 2
grep -q "frame must be a JSON object" null_out.json
test ! -s err.txt

# numeric arrays hold JSON numbers only: a string and booleans, each read as 1.0 by numpy's
# float conversion, exit 2 with the JSON error naming the field and nothing on stderr
echo '{"N": 1, "kind": "pure", "amplitudes_re": ["1", 0], "amplitudes_im": [0, 0]}' > string_amplitudes.json
code=0; modefisher qfi --state string_amplitudes.json --direction 1,0,0 > array_out.json 2>err.txt || code=$?
test "$code" -eq 2
grep -q "amplitudes_re must hold numbers" array_out.json
test ! -s err.txt
echo '{"N": 1, "kind": "diagonal", "p": [true, false]}' > bool_p.json
code=0; modefisher qfi --state bool_p.json --direction 1,0,0 > array_out.json 2>err.txt || code=$?
test "$code" -eq 2
grep -q "p must hold numbers" array_out.json
test ! -s err.txt

# a Fock state built in a frame of det U = -1 is separable against e^{0.3i} U: the change is
# the phase e^{0.3iN}, which the determinant's reading gives
python -c "
import json, math
r = 1 / math.sqrt(2)
u = [[r, r], [r, -r]]
frame = {'kind': 'unitary', 'u_re': u, 'u_im': [[0, 0], [0, 0]]}
json.dump({'N': 3, 'kind': 'fock', 'k': 1, 'frame': frame}, open('det_state.json', 'w'))
json.dump({'kind': 'unitary', 'u_re': [[math.cos(0.3) * x for x in row] for row in u],
           'u_im': [[math.sin(0.3) * x for x in row] for row in u]}, open('phase_frame.json', 'w'))
"
modefisher separability --state det_state.json --frame phase_frame.json > phase_sep.json
python -c "import json, sys; sys.exit(json.load(open('phase_sep.json'))['separable'] is not True)"

# a witness whose coefficient exceeds double range (spatial |66> at N = 200 in a Bogolubov
# frame) exits 0 with nothing on stderr: residual_re is null and log10_abs_residual finite
echo '{"N": 200, "kind": "fock", "k": 66}' > fock200.json
echo '{"kind": "bogolubov", "phi": 0.4}' > bogo04.json
modefisher separability --state fock200.json --frame bogo04.json --witnesses > witness200.json 2>err.txt
test ! -s err.txt
python -c "
import json, math, sys
w = json.load(open('witness200.json'))['witness']
sys.exit(not (w['residual_re'] is None and math.isfinite(w['log10_abs_residual'])))
"

# an estimate of an angle outside the window [0, pi/2] exits 2, naming the window
code=0; modefisher estimate --state twin4.json --direction 1,0,0 --theta 2.0 --trials 4 --shots 200 > window.json || code=$?
test "$code" -eq 2
grep -q "estimation window" window.json

# a state file without amplitudes_im exits 2 with the JSON error naming the field and nothing
# on stderr
echo '{"N": 1, "kind": "pure", "amplitudes_re": [1, 0]}' > no_im.json
code=0; modefisher qfi --state no_im.json --direction 1,0,0 > no_im_out.json 2>err.txt || code=$?
test "$code" -eq 2
grep -q "amplitudes_im is missing" no_im_out.json
test ! -s err.txt

# an estimate ends each trial where its log-likelihood stops resolving, so the BLAS thread
# count, which changes how W's products round, leaves a random N = 120 state's estimates the
# same to 1e-12
python -c "
import json, numpy as np
rng = np.random.default_rng(4)
c = rng.normal(size=121) + 1j * rng.normal(size=121)
c /= np.linalg.norm(c)
json.dump({'N': 120, 'kind': 'pure', 'amplitudes_re': c.real.tolist(),
           'amplitudes_im': c.imag.tolist()}, open('random120.json', 'w'))
"
for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads modefisher estimate --state random120.json --direction 0.48,0.64,0.6 --theta 0.7 --trials 200 --shots 2000 --seed 3 > "threads$threads.json"
done
python -c "
import json, sys
one, two = (json.load(open(f'threads{t}.json'))['estimates'] for t in (1, 2))
sys.exit(max(abs(a - b) for a, b in zip(one, two, strict=True)) > 1e-12)
"
