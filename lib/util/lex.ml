exception Parse_error of { source : string; line : int; message : string }

let fail ~source line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { source; line; message })) fmt

(* The message for a literal that is not a finite float; built only on
   failure, so that parsing a valid number allocates nothing extra. *)
let bad_number s =
  match float_of_string_opt s with
  | Some _ -> Printf.sprintf "non-finite number %S" s
  | None -> Printf.sprintf "malformed number %S" s

(* ------------------------------------------------------------------ *)
(* Character cursor                                                   *)
(* ------------------------------------------------------------------ *)

type t = { source : string; src : string; mutable pos : int; mutable line : int }

let create ~source src = { source; src; pos = 0; line = 1 }
let line lx = lx.line
let error lx fmt = fail ~source:lx.source lx.line fmt
let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let skip_while lx p =
  while (match peek lx with Some c -> p c | None -> false) do
    advance lx
  done

let take_while lx p =
  let start = lx.pos in
  skip_while lx p;
  String.sub lx.src start (lx.pos - start)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let rec skip_trivia lx =
  let next_is c = lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = c in
  match peek lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_trivia lx
  | Some '/' when next_is '/' ->
    skip_while lx (fun c -> c <> '\n');
    skip_trivia lx
  | Some '/' when next_is '*' ->
    advance lx;
    advance lx;
    let rec close () =
      match peek lx with
      | None -> error lx "unterminated block comment"
      | Some '*' when next_is '/' ->
        advance lx;
        advance lx
      | Some _ ->
        advance lx;
        close ()
    in
    close ();
    skip_trivia lx
  | _ -> ()

let quoted lx =
  advance lx;
  let s = take_while lx (fun c -> c <> '"') in
  if peek lx = None then error lx "unterminated string";
  advance lx;
  s

let number lx s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | _ -> error lx "%s" (bad_number s)

(* ------------------------------------------------------------------ *)
(* One-token lookahead                                                *)
(* ------------------------------------------------------------------ *)

type 'tok stream = { cur : t; lex : t -> 'tok; mutable tok : 'tok }

let stream cur lex = { cur; lex; tok = lex cur }
let tok st = st.tok
let cursor st = st.cur
let next st = st.tok <- st.lex st.cur
let fail_at st fmt = error st.cur fmt

let expect st tok what =
  if st.tok = tok then next st else fail_at st "expected %s" what

let expect_some st f what =
  match f st.tok with
  | Some x ->
    next st;
    x
  | None -> fail_at st "expected %s" what

(* ------------------------------------------------------------------ *)
(* Line-oriented formats                                              *)
(* ------------------------------------------------------------------ *)

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let parse_float ~source line key v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> f
  | _ -> fail ~source line "%s: %s" key (bad_number v)
