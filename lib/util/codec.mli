(** Binary encoding helpers shared by the page layout and the log-record
    codec.

    All integers are little-endian. [Buffer]-based writers pair with
    cursor-based readers; readers raise [Corrupt] rather than returning
    partial data, because a short read here always indicates a torn page or
    truncated log record. *)

exception Corrupt of string

(* Writers *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int64 -> unit
val put_int : Buffer.t -> int -> unit
(** 63-bit OCaml int as a 64-bit word. *)

val put_bytes : Buffer.t -> string -> unit
(** Length-prefixed (u32) byte string. *)

val put_float : Buffer.t -> float -> unit

(* Readers: [reader] carries the source string and a mutable offset. *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** A cursor over [src] starting at [pos] (default 0) and confined to the
    next [len] bytes (default: to the end of [src]); reads past the limit
    raise [Corrupt]. *)

val pos : reader -> int
val remaining : reader -> int

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int64
val get_int : reader -> int
val get_bytes : reader -> string
val get_float : reader -> float

val get_blit : reader -> bytes -> pos:int -> len:int -> unit
(** Copy the next [len] raw (unprefixed) bytes into the given buffer at
    [pos]. *)

(* Direct [bytes] accessors for fixed page layouts. *)

val set_u16 : bytes -> int -> int -> unit
val set_u32 : bytes -> int -> int -> unit
val set_i64 : bytes -> int -> int64 -> unit
val read_u16 : bytes -> int -> int
val read_u32 : bytes -> int -> int
val read_i64 : bytes -> int -> int64

val crc32 : string -> int32
(** CRC-32 (IEEE) over the whole string. *)

val crc32_sub : ?crc:int -> string -> pos:int -> len:int -> int
(** CRC-32 (IEEE) of the [len] bytes of [s] at [pos], as an unboxed value in
    [\[0, 2{^32})] — bit-identical to {!crc32} on the same bytes, computed
    without allocating. [crc] (default 0, the CRC of nothing) continues a
    previous result: [crc32_sub ~crc:(crc32_sub a ..) b ..] is the CRC of
    [a] followed by [b]. Used for log-record framing (checked in place) and
    page checksums. Raises [Invalid_argument] on a range outside [s]. *)
