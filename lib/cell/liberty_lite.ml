module Lex = Tka_util.Lex
module Log = Tka_obs.Log

let log_src = Log.Src.create "liberty" ~doc:"Liberty-lite cell-library parser"
let m_cells = Tka_obs.Metrics.Counter.make "liberty.cells_parsed"

type t = { library_name : string; cells : Cell.t list }

exception Parse_error = Lex.Parse_error

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of float
  | Str of string
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Colon
  | Semi
  | Eof

let is_number_start c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.'

let lex_token lx =
  Lex.skip_trivia lx;
  match Lex.peek lx with
  | None -> Eof
  | Some '(' -> Lex.advance lx; Lparen
  | Some ')' -> Lex.advance lx; Rparen
  | Some '{' -> Lex.advance lx; Lbrace
  | Some '}' -> Lex.advance lx; Rbrace
  | Some ':' -> Lex.advance lx; Colon
  | Some ';' -> Lex.advance lx; Semi
  | Some '"' -> Str (Lex.quoted lx)
  | Some c when is_number_start c ->
    let accept c = is_number_start c || c = 'e' || c = 'E' in
    Number (Lex.number lx (Lex.take_while lx accept))
  | Some c when Lex.is_ident_char c -> Ident (Lex.take_while lx Lex.is_ident_char)
  | Some c -> Lex.error lx "unexpected character %C" c

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let expect_ident st what =
  Lex.expect_some st (function Ident s -> Some s | _ -> None) what

type value = Vnum of float | Vstr of string

let parse_value st =
  match Lex.tok st with
  | Number f ->
    Lex.next st;
    Vnum f
  | Str s ->
    Lex.next st;
    Vstr s
  | Ident s ->
    Lex.next st;
    Vstr s
  | Lparen | Rparen | Lbrace | Rbrace | Colon | Semi | Eof ->
    Lex.fail_at st "expected a value"

(* attr := IDENT ':' value ';' — the IDENT is already consumed. *)
let parse_attr_tail st =
  Lex.expect st Colon "':'";
  let v = parse_value st in
  Lex.expect st Semi "';'";
  v

let num st key = function
  | Vnum f -> f
  | Vstr _ -> Lex.fail_at st "attribute %s must be numeric" key

let str st key = function
  | Vstr s -> s
  | Vnum _ -> Lex.fail_at st "attribute %s must be a string" key

type raw_pin = {
  rp_name : string;
  rp_direction : string option;
  rp_capacitance : float option;
}

let parse_pin st =
  (* 'pin' consumed *)
  Lex.expect st Lparen "'('";
  let pname = expect_ident st "pin name" in
  Lex.expect st Rparen "')'";
  Lex.expect st Lbrace "'{'";
  let direction = ref None and capacitance = ref None in
  let rec items () =
    match Lex.tok st with
    | Rbrace ->
      Lex.next st
    | Ident key ->
      Lex.next st;
      let v = parse_attr_tail st in
      (match key with
      | "direction" -> direction := Some (str st key v)
      | "capacitance" -> capacitance := Some (num st key v)
      | _ ->
        (* tolerated, but no longer silent *)
        Log.warn log_src (fun m ->
            m
              ~fields:
                [
                  Log.int "line" (Lex.line (Lex.cursor st));
                  Log.str "pin" pname;
                  Log.str "attribute" key;
                ]
              "line %d: ignoring unknown pin attribute %S on pin %s"
              (Lex.line (Lex.cursor st)) key pname));
      items ()
    | _ -> Lex.fail_at st "expected pin attribute or '}'"
  in
  items ();
  { rp_name = pname; rp_direction = !direction; rp_capacitance = !capacitance }

let parse_cell st =
  (* 'cell' consumed *)
  Lex.expect st Lparen "'('";
  let cname = expect_ident st "cell name" in
  Lex.expect st Rparen "')'";
  Lex.expect st Lbrace "'{'";
  let attrs = Hashtbl.create 8 in
  let pins = ref [] in
  let rec items () =
    match Lex.tok st with
    | Rbrace ->
      Lex.next st
    | Ident "pin" ->
      Lex.next st;
      pins := parse_pin st :: !pins;
      items ()
    | Ident key ->
      Lex.next st;
      let v = parse_attr_tail st in
      Hashtbl.replace attrs key v;
      items ()
    | _ -> Lex.fail_at st "expected cell attribute, pin or '}'"
  in
  items ();
  let required key =
    match Hashtbl.find_opt attrs key with
    | Some v -> num st key v
    | None -> Lex.fail_at st "cell %s: missing attribute %s" cname key
  in
  let logic =
    match Hashtbl.find_opt attrs "function" with
    | Some v -> str st "function" v
    | None -> ""
  in
  let classify p =
    match p.rp_direction with
    | Some "input" -> (
      match p.rp_capacitance with
      | Some c -> (
        try `Input (Cell.input_pin ~name:p.rp_name ~capacitance:c)
        with Invalid_argument m -> Lex.fail_at st "cell %s: %s" cname m)
      | None -> Lex.fail_at st "cell %s: input pin %s has no capacitance" cname p.rp_name)
    | Some "output" -> `Output (Cell.output_pin ~name:p.rp_name)
    | Some d -> Lex.fail_at st "cell %s: pin %s: bad direction %S" cname p.rp_name d
    | None -> Lex.fail_at st "cell %s: pin %s has no direction" cname p.rp_name
  in
  let classified = List.rev_map classify !pins in
  let inputs =
    List.filter_map (function `Input p -> Some p | `Output _ -> None) classified
  in
  let outputs =
    List.filter_map (function `Output p -> Some p | `Input _ -> None) classified
  in
  let output =
    match outputs with
    | [ o ] -> o
    | [] -> Lex.fail_at st "cell %s: no output pin" cname
    | _ -> Lex.fail_at st "cell %s: multiple output pins" cname
  in
  try
    Cell.make ~name:cname ~inputs ~output ~logic
      ~intrinsic_delay:(required "intrinsic_delay")
      ~drive_resistance:(required "drive_resistance")
      ~intrinsic_slew:(required "intrinsic_slew")
      ~slew_resistance:(required "slew_resistance")
  with Invalid_argument m -> Lex.fail_at st "cell %s: %s" cname m

let parse src =
  Tka_obs.Trace.with_span ~cat:"parse" "liberty.parse" @@ fun () ->
  let st = Lex.stream (Lex.create ~source:"liberty" src) lex_token in
  (match Lex.tok st with
  | Ident "library" -> Lex.next st
  | _ -> Lex.fail_at st "expected 'library'");
  Lex.expect st Lparen "'('";
  let library_name = expect_ident st "library name" in
  Lex.expect st Rparen "')'";
  Lex.expect st Lbrace "'{'";
  let cells = ref [] in
  let rec items () =
    match Lex.tok st with
    | Rbrace ->
      Lex.next st
    | Ident "cell" ->
      Lex.next st;
      cells := parse_cell st :: !cells;
      items ()
    | _ -> Lex.fail_at st "expected 'cell' or '}'"
  in
  items ();
  (match Lex.tok st with
  | Eof -> ()
  | _ -> Lex.fail_at st "trailing content after library");
  Tka_obs.Metrics.Counter.add m_cells (List.length !cells);
  Log.info log_src (fun m ->
      m
        ~fields:
          [ Log.str "library" library_name; Log.int "cells" (List.length !cells) ]
        "parsed library %s: %d cells" library_name (List.length !cells));
  { library_name; cells = List.rev !cells }

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let find t n = List.find_opt (fun c -> c.Cell.name = n) t.cells
