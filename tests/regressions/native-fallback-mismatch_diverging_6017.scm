;; sized-fuzz regression (replay: sized fuzz --replay <this file>)
;; class: native-fallback-mismatch
;; seed: 6017
;; mode: diverging
;; entry: f0
;; entry-kinds: nat
;; must-verify: #f
;; must-discharge: #f
;; fuel: 150000
;; detail: residual-monitored λs run on the native tier, where the table
;;   step happens in the trampoline.  A compiled self-tail loop jumps
;;   back to the top of the body without going through the trampoline,
;;   so an unguarded loop in a monitored λ skipped every step after the
;;   first: native:bitmask:monitored ran out of fuel where tree and
;;   compiled raise the size-change violation at call 3.  Fixed by
;;   emitting the self-loop jump into non-discharged λs only behind a
;;   "needs no table step in this run" guard.
(define (f0 n0) (f0 0))
(f0 7)
