#!/bin/sh
# Compare what bss run, shadow, certify, paths and witness print between two
# source trees, for every stdlib program at fixed inputs.
#
#   sh scripts/compare_outputs.sh OLD_TREE NEW_TREE OUT_DIR [KEYS]
#
# Each tree is a checkout holding src/bssvm.  run (at --budget 2000, so that
# the json carries every step record), shadow and certify run in json once
# with a rational input and once with an input in Q(sqrt 2), and in text with
# the Q(sqrt 2) input; paths runs at its default depth in json, and in text
# too for every program but the two whose trees have tens of thousands of
# leaves, cantor_cosemidecider and qx_enumerator (bss paths of qx_enumerator
# takes 5.5 s and prints 48 MB of json on a shared 2-core VM), and the three
# programs that take --oracle also run paths under --oracle-policy split and
# witness in both formats.  run, shadow and certify of the arity-1 programs
# that take an element of the cubic field Q(b), b^3 = b + 1, run in both
# formats too.
# sgn runs in both formats at a 300-bit approximation of sqrt 2, and run,
# shadow and certify of the same five programs run in both formats in the
# fields X^2 - 2/3 on [0, 1] (a non-integer coefficient) and X^2 - 2 on
# [-2, -1] (a negative isolating interval).
# One bss run --trace in text format prints a trace through trace_to_text.
# bss stdlib, bss stdlib --emit for every program, bss cantor --decompose
# 1/4 and bss cantor --member at a member (1/4) and a non-member (1/2) run
# in both formats, so every subcommand's output is compared.
# Every command's stdout, exit code and last line of stderr go to
# OUT_DIR/old and OUT_DIR/new, and the script ends with diff -r of the two:
# exit status 0 and no diff output mean identical outputs.  KEYS, a
# comma-separated list of JSON keys such as enclosure,point, blanks the
# values of those keys (to null) in every json output of both trees before
# the diff.

field='a=X^2 - 2;1;2'
programs='sgn sgn_decider interval_member even_zeros inv_shift cantor_cosemidecider
  oracle_member always_zero eq_probe q_enumerator qx_enumerator
  algebraic_semidecider dependence'
# floor(sqrt(2) * 2^300) / 2^300
r300=$(python3 -c 'from math import isqrt; print(f"{isqrt(2 << 600)}/{1 << 300}")')

run() {  # run NAME FORMAT BSS-ARGS...
  name=$1
  format=$2
  shift 2
  base=$out/$name.$format
  PYTHONPATH="$tree/src" python3 -m bssvm.cli "$@" --format "$format" \
    >"$base" 2>"$base.stderr"
  echo $? >"$base.code"
  # a traceback names files and line numbers; its last line is the error
  tail -n 1 "$base.stderr" >"$base.err"
  rm "$base.stderr"
}

mask() {  # mask DIR KEYS: the values of KEYS in every DIR/*.json become null
  python3 - "$2" "$1"/*.json <<'EOF'
import os
import re
import sys

keys = "|".join(re.escape(k) for k in sys.argv[1].split(","))
# json.dumps(indent=2) puts each key on its own line; a list or object
# value ends on the first later line that closes it at the key's indent
start = re.compile(r'^( *)"(?:%s)": (.*?)(,?)$' % keys)
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as src, \
            open(path + ".masked", "w", encoding="utf-8") as dst:
        closing = None
        for line in src:
            if closing is not None:
                if line.rstrip("\n").rstrip(",") == closing:
                    dst.write(masked + ("," if line.rstrip("\n").endswith(",") else "") + "\n")
                    closing = None
                continue
            m = start.match(line.rstrip("\n"))
            if m is None:
                dst.write(line)
                continue
            indent, value, comma = m.groups()
            masked = line[:line.index(":") + 1] + " null"
            if value in ("[", "{"):
                closing = indent + ("]" if value == "[" else "}")
            else:
                dst.write(masked + comma + "\n")
    os.replace(path + ".masked", path)
EOF
}

for side in old new; do
  if [ $side = old ]; then tree=$1; else tree=$2; fi
  out=$3/$side
  mkdir -p "$out"
  for p in $programs; do
    oracle=
    case $p in
      oracle_member|always_zero|eq_probe|dependence)
        rational='(3/4, -2/5)'; algebraic='(a:(0,1), -2/5)';;
      *) rational='(3/4)'; algebraic='(a:(1/3,1))';;
    esac
    case $p in oracle_member|always_zero|eq_probe) oracle='--oracle rationals';; esac
    run $p.run.rational json run --stdlib $p $oracle --budget 2000 --input "$rational"
    for format in json text; do
      run $p.run.field $format run --stdlib $p $oracle --budget 2000 --field "$field" \
        --input "$algebraic"
    done
    for cmd in shadow certify; do
      run $p.$cmd.rational json $cmd --stdlib $p $oracle --input "$rational"
      for format in json text; do
        run $p.$cmd.field $format $cmd --stdlib $p $oracle --field "$field" \
          --input "$algebraic"
      done
    done
    run $p.paths json paths --stdlib $p $oracle
    case $p in
      cantor_cosemidecider|qx_enumerator) ;;
      *) run $p.paths text paths --stdlib $p $oracle;;
    esac
    if [ -n "$oracle" ]; then
      for format in json text; do
        run $p.paths.split $format paths --stdlib $p $oracle --oracle-policy split
        run $p.witness $format witness --stdlib $p $oracle --input "(5, 7)"
      done
    fi
  done
  for p in sgn interval_member even_zeros inv_shift algebraic_semidecider; do
    for cmd in run shadow certify; do
      for format in json text; do
        run $p.$cmd.cubic $format $cmd --stdlib $p --budget 2000 \
          --field 'b=X^3 - X - 1;1;2' --input '(b:(2/3,-1,5))'
      done
    done
  done
  # edges of the integer sign kernel: sgn at a 300-bit approximation of
  # sqrt 2, a field polynomial with a non-integer coefficient, and a
  # negative isolating interval
  for format in json text; do
    run sgn.run.sqrt2_300 $format run --stdlib sgn --field "$field" \
      --input "(a:($r300,-1))"
  done
  for spec in 'c=X^2 - 2/3;0;1' 'c=X^2 - 2;-2;-1'; do
    case $spec in *-1) key=negative;; *) key=nonint;; esac
    for p in sgn interval_member even_zeros inv_shift algebraic_semidecider; do
      for cmd in run shadow certify; do
        for format in json text; do
          run $p.$cmd.$key $format $cmd --stdlib $p --budget 2000 --field "$spec" \
            --input '(c:(1/3,1))'
        done
      done
    done
  done
  run algebraic_semidecider.run.trace text run --stdlib algebraic_semidecider --trace \
    --budget 2000 --field "$field" --input "(a:(1/3,1))"
  # the subcommands that run no program
  for format in json text; do
    run stdlib $format stdlib
    for p in $programs; do
      run $p.emit $format stdlib --emit $p
    done
    run cantor.decompose $format cantor --decompose 1/4
    run cantor.member $format cantor --member 1/4
    run cantor.nonmember $format cantor --member 1/2
  done
  if [ -n "$4" ]; then
    mask "$out" "$4"
  fi
done
diff -r "$3/old" "$3/new"
