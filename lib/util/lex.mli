(** Shared text front end of the five input parsers (netlist, Verilog,
    SPEF, SDF, Liberty).

    Every parser reports malformed input through the one {!Parse_error},
    tagged with the format's [source] name; each parser module rebinds
    it as its own [Parse_error]. The character cursor and the token
    stream serve the two C-style grammars (Verilog, Liberty); the
    line-format helpers serve the line-oriented ones (netlist, SPEF). *)

exception Parse_error of { source : string; line : int; message : string }
(** [line] is 1-based (0 for whole-input problems found after the last
    line); [source] is ["netlist"], ["verilog"], ["spef"], ["sdf"] or
    ["liberty"]. *)

val fail : source:string -> int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~source line fmt ...] raises {!Parse_error}. *)

(** {1 Character cursor} *)

type t

val create : source:string -> string -> t
(** A cursor at line 1 of the text. *)

val line : t -> int
(** The current 1-based line. *)

val error : t -> ('a, unit, string, 'b) format4 -> 'a
(** {!fail} at the cursor's current line. *)

val peek : t -> char option
val advance : t -> unit
(** Steps one character, counting newlines. *)

val take_while : t -> (char -> bool) -> string

val is_ident_char : char -> bool
(** [[A-Za-z0-9_]]. *)

val skip_trivia : t -> unit
(** Skips whitespace, [//] line comments and [/* */] block comments
    (an unterminated one raises "unterminated block comment"). *)

val quoted : t -> string
(** At an opening ['"']: the text up to the closing quote, which is
    consumed ("unterminated string" at end of input). *)

val number : t -> string -> float
(** The literal's finite value, or "non-finite number" / "malformed
    number" at the cursor. *)

(** {1 One-token lookahead} *)

type 'tok stream

val stream : t -> (t -> 'tok) -> 'tok stream
(** Lexes the first token. *)

val tok : 'tok stream -> 'tok
(** The current token. *)

val cursor : 'tok stream -> t
val next : 'tok stream -> unit

val fail_at : 'tok stream -> ('a, unit, string, 'b) format4 -> 'a
(** {!error} at the stream's cursor. *)

val expect : 'tok stream -> 'tok -> string -> unit
(** [expect st tok what] consumes [tok], or fails "expected [what]". *)

val expect_some : 'tok stream -> ('tok -> 'a option) -> string -> 'a
(** Consumes the current token and returns its projection, or fails
    "expected [what]" when the projection rejects it. *)

(** {1 Line-oriented formats} *)

val split_words : string -> string list
(** Splits on spaces, tabs and carriage returns, dropping empty words. *)

val parse_float : source:string -> int -> string -> string -> float
(** [parse_float ~source line key v]: [v]'s finite value, or fails with
    ["key: non-finite number ..."] / ["key: malformed number ..."]. *)
