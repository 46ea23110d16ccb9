#!/bin/sh
# Compare what bss shadow, certify and paths print in --format json between
# two source trees, for every stdlib program at one fixed input each.
#
#   sh scripts/compare_outputs.sh OLD_TREE NEW_TREE OUT_DIR
#
# Each tree is a checkout holding src/bssvm.  shadow and certify run once with
# a rational input and once with an input in Q(sqrt 2); paths runs at its
# default depth (the qx_enumerator tree alone takes minutes and prints 48 MB).
# Every command's stdout, exit code and last line of stderr go to
# OUT_DIR/old and OUT_DIR/new, and the script ends with diff -r of the two:
# exit status 0 and no diff output mean identical outputs.

field='a=X^2 - 2;1;2'

run() {  # run NAME BSS-ARGS...
  name=$1
  shift
  PYTHONPATH="$tree/src" python3 -m bssvm.cli "$@" --format json \
    >"$out/$name.json" 2>"$out/$name.stderr"
  echo $? >"$out/$name.code"
  # a traceback names files and line numbers; its last line is the error
  tail -n 1 "$out/$name.stderr" >"$out/$name.err"
  rm "$out/$name.stderr"
}

for side in old new; do
  if [ $side = old ]; then tree=$1; else tree=$2; fi
  out=$3/$side
  mkdir -p "$out"
  for p in sgn sgn_decider interval_member even_zeros inv_shift cantor_cosemidecider \
           oracle_member always_zero eq_probe q_enumerator qx_enumerator \
           algebraic_semidecider dependence; do
    oracle=
    case $p in
      oracle_member|always_zero|eq_probe|dependence)
        rational='(3/4, -2/5)'; algebraic='(a:(0,1), -2/5)';;
      *) rational='(3/4)'; algebraic='(a:(1/3,1))';;
    esac
    case $p in oracle_member|always_zero|eq_probe) oracle='--oracle rationals';; esac
    for cmd in shadow certify; do
      run $p.$cmd.rational $cmd --stdlib $p $oracle --input "$rational"
      run $p.$cmd.field $cmd --stdlib $p $oracle --field "$field" --input "$algebraic"
    done
    run $p.paths paths --stdlib $p $oracle
  done
done
diff -r "$3/old" "$3/new"
