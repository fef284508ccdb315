(* A minimal JSON reader/writer.

   The project depends on no JSON package, and its needs are small:
   read sweep workers' stats files and the end-to-end benchmark's
   records, validate Chrome trace_event exports, and render
   provenance manifests and metrics samples.  This is a complete JSON
   parser (objects, arrays, strings with escapes, numbers, literals)
   with one representational simplification: all numbers are floats,
   which is exactly how every producer in this repository writes
   them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* -- reading --------------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let error c fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos msg))) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c "expected %C, found %C" ch x
  | None -> error c "expected %C, found end of input" ch

let literal c word value =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else error c "invalid literal"

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch ->
        let d =
          match ch with
          | '0' .. '9' -> Char.code ch - Char.code '0'
          | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
          | _ -> error c "invalid \\u escape"
        in
        v := (!v * 16) + d
    | None -> error c "truncated \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | Some '"' -> Buffer.add_char buf '"'; advance c
        | Some '\\' -> Buffer.add_char buf '\\'; advance c
        | Some '/' -> Buffer.add_char buf '/'; advance c
        | Some 'b' -> Buffer.add_char buf '\b'; advance c
        | Some 'f' -> Buffer.add_char buf '\012'; advance c
        | Some 'n' -> Buffer.add_char buf '\n'; advance c
        | Some 'r' -> Buffer.add_char buf '\r'; advance c
        | Some 't' -> Buffer.add_char buf '\t'; advance c
        | Some 'u' ->
            advance c;
            let u = hex4 c in
            (* Surrogate pair: a high surrogate must be followed by
               \uDC00-\uDFFF; combine into one scalar value. *)
            if u >= 0xD800 && u <= 0xDBFF then begin
              expect c '\\';
              expect c 'u';
              let lo = hex4 c in
              if lo < 0xDC00 || lo > 0xDFFF then error c "unpaired surrogate"
              else add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else add_utf8 buf u
        | _ -> error c "invalid escape");
        loop ()
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let consume () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance c;
        true
    | _ -> false
  in
  while consume () do
    ()
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with Some v -> Num v | None -> error c "malformed number %S" s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((key, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | _ -> error c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> error c "expected ',' or ']'"
        in
        Arr (elements [])
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "at byte %d: trailing garbage after the document" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors ------------------------------------------------------------- *)

let member j key = match j with Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let keys = function Obj fields -> List.map fst fields | _ -> []

(* -- writing --------------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity; null is the least-surprising rendering. *)
let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let rec write buf ~indent ~level j =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_string buf "\n" in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number v)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr elements ->
      Buffer.add_char buf '[';
      sep ();
      List.iteri
        (fun i v ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          write buf ~indent ~level:(level + 1) v)
        elements;
      sep ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      sep ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          if indent then Buffer.add_char buf ' ';
          write buf ~indent ~level:(level + 1) v)
        fields;
      sep ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  write buf ~indent:pretty ~level:0 j;
  Buffer.contents buf

(* -- Chrome trace_event documents -------------------------------------------- *)

type chrome_event = {
  ev_name : string;
  ev_cat : string;
  ts : float;
  dur : float option;
  args : (string * t) list;
}

let chrome_trace threads =
  let micros s = Printf.sprintf "%.3f" (s *. 1e6) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let sep = ref "\n" in
  let emit s =
    Buffer.add_string buf !sep;
    Buffer.add_string buf s;
    sep := ",\n"
  in
  List.iteri
    (fun tid (name, events) ->
      emit
        (Printf.sprintf {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"%s"}}|}
           tid (escape name));
      List.iter
        (fun e ->
          emit
            (Printf.sprintf {|{"name":"%s","cat":"%s","pid":0,"tid":%d,"ts":%s,%s%s}|}
               (escape e.ev_name) (escape e.ev_cat) tid (micros e.ts)
               (match e.dur with
               | Some d -> Printf.sprintf {|"ph":"X","dur":%s|} (micros d)
               | None -> {|"ph":"i","s":"t"|})
               (if e.args = [] then "" else ",\"args\":" ^ to_string (Obj e.args))))
        events)
    threads;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
