(** Console reporting for experiment results: aligned rows with the
    paper's expected values next to the measured ones, so every figure
    regeneration doubles as a sanity check. *)

val section : string -> unit
(** Print a figure banner. *)

val note : ('a, Format.formatter, unit, unit) format4 -> 'a
(** Free-form annotation line. *)

val row : label:string -> ?paper:float -> units:string -> float -> unit
(** One measurement row; [paper] prints the reference value and the
    deviation. *)

val series_header : string list -> unit
val series_row : string -> float list -> unit
