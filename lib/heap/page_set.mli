(** Page-touch accounting for Figure 15.

    The paper measures "the pages touched during trace and sweep, including
    all the tables the collector uses (such as the card table)".  The
    collector records every virtual byte range it reads or writes — heap
    object headers and slots, color-table entries, age-table entries and
    card-mark bytes — against the {!Layout.tables} virtual layout; the
    cardinality of the resulting 4 KB page set is the figure's metric. *)

type t

val create : Layout.tables -> t
(** Empty page set spanning the whole virtual layout. *)

val reset : t -> unit

val count : t -> int
(** Number of distinct pages touched since the last [reset]. *)

val merge_into : src:t -> dst:t -> unit
(** Union [src]'s touched pages into [dst].  Both must have been created
    from the same {!Layout.tables}.  Used by the parallel crew: workers
    touch sets of their own, and the cycle end counts their union. *)

val touch_range : t -> int -> int -> unit
(** [touch_range t addr len] records the pages covering
    [addr .. addr+len-1]. *)

val touch_heap_object : t -> addr:int -> size:int -> unit
(** Heap pages occupied by an object. *)

val touch_color : t -> int -> unit
(** Color-table byte for the object at the given heap address. *)

val touch_age : t -> int -> unit
(** Age-table byte for the object at the given heap address. *)

val touch_card : t -> card_size:int -> int -> unit
(** Card-mark byte covering the given heap address. *)

val touch_card_index : t -> card_index:int -> unit
(** Card-mark byte by card index (card size encoded in the layout). *)

val touch_remset : t -> int -> unit
(** Remembered-set flag covering the given heap address. *)
