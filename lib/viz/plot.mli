(** Minimal plotting for trajectories and speedup curves.

    The ObjectMath environment offered "graphical presentation and
    visualization" of numerical experiments (paper §1.1, Figure 7's
    "Visualization Tool" box).  This module renders line charts as SVG
    text, with no dependencies. *)

type series = {
  label : string;
  points : (float * float) list;
}

val series : string -> (float * float) list -> series

val of_arrays : string -> float array -> float array -> series
(** @raise Invalid_argument on length mismatch. *)

val to_svg :
  ?width:int ->
  ?height:int ->
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  string
(** A complete standalone SVG document with axes, tick labels, a legend
    and one polyline per series.  @raise Invalid_argument when no series
    has at least two points. *)

val save_svg :
  path:string ->
  ?width:int ->
  ?height:int ->
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  unit

type gantt_segment = {
  row : int;  (** 0-based row index *)
  t_start : float;
  t_end : float;
  category : string;  (** colours are assigned per distinct category *)
}

val gantt_svg :
  ?width:int ->
  ?height:int ->
  ?title:string ->
  row_labels:string list ->
  gantt_segment list ->
  string
(** Horizontal activity chart: one lane per row, one rectangle per
    segment, a legend per category.  @raise Invalid_argument on empty
    input or rows outside the label range. *)
