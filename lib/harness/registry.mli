(** The catalogue of reproducible experiments. *)

type entry = {
  name : string;  (** e.g. "fig6" *)
  title : string;
  run : Exp.Ctx.t -> Hrt_stats.Table.t list;
}

val all : entry list
(** Figures 3-16 then the ablations, in order. *)

val find : string -> entry option

val run_and_print : ?ctx:Exp.Ctx.t -> entry -> Hrt_stats.Table.t list
(** Execute the entry once under [ctx] (default {!Exp.or_default}[ None]),
    print its tables with a wall-clock note, and return them. *)
