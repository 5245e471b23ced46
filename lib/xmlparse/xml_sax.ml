type event =
  | Declaration of (string * string) list
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of string * string

(* The grammar is Xml_dom's, step for step: the same lexer calls in the
   same order, so a malformed document fails with the same message at the
   same position on either route.  Element nesting runs on an explicit
   stack of open tags instead of Xml_dom's recursion, so arbitrarily deep
   documents stream without growing the call stack. *)

(* A processing instruction, cursor on its ["<?"]. *)
let scan_pi lx =
  Xml_lexer.expect_string lx "<?";
  let target = Xml_lexer.scan_name lx in
  Xml_lexer.skip_whitespace lx;
  Pi (target, Xml_lexer.scan_until lx "?>")

(* Prolog and trailing misc, as [Xml_dom.skip_misc]: whitespace, comments,
   DOCTYPE (skipped without an event) and processing instructions. *)
let skip_misc lx handler =
  let rec loop () =
    Xml_lexer.skip_whitespace lx;
    if Xml_lexer.looking_at lx "<!--" then begin
      Xml_lexer.expect_string lx "<!--";
      handler (Comment (Xml_lexer.scan_until lx "-->"));
      loop ()
    end
    else if Xml_lexer.looking_at lx "<!DOCTYPE" then begin
      Xml_lexer.skip_doctype lx;
      loop ()
    end
    else if Xml_lexer.looking_at lx "<?" then begin
      handler (scan_pi lx);
      loop ()
    end
  in
  loop ()

let parse_lexer lx handler =
  Xml_lexer.skip_whitespace lx;
  if Xml_lexer.looking_at lx "<?xml" then begin
    Xml_lexer.expect_string lx "<?xml";
    let attrs = Xml_lexer.scan_attributes lx in
    Xml_lexer.skip_whitespace lx;
    Xml_lexer.expect_string lx "?>";
    handler (Declaration attrs)
  end;
  skip_misc lx handler;
  if Xml_lexer.at_end lx || Xml_lexer.peek lx <> '<' then
    Xml_lexer.error lx "expected a root element";
  (* Text accumulates per contiguous run of character data and CDATA. *)
  let text = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text > 0 then begin
      handler (Text (Buffer.contents text));
      Buffer.clear text
    end
  in
  let open_tags = ref [] in
  let start_element () =
    Xml_lexer.expect lx '<';
    let tag = Xml_lexer.scan_name lx in
    let attrs = Xml_lexer.scan_attributes lx in
    Xml_lexer.skip_whitespace lx;
    handler (Start_element (tag, attrs));
    if Xml_lexer.looking_at lx "/>" then begin
      Xml_lexer.expect_string lx "/>";
      handler (End_element tag)
    end
    else begin
      Xml_lexer.expect lx '>';
      open_tags := tag :: !open_tags
    end
  in
  start_element ();
  (* Content of the innermost open element. *)
  while !open_tags <> [] do
    if Xml_lexer.at_end lx then Xml_lexer.error lx "unexpected end of input inside an element";
    let c = Xml_lexer.peek lx in
    if c = '<' then begin
      if Xml_lexer.looking_at lx "</" then begin
        flush_text ();
        Xml_lexer.expect_string lx "</";
        let close = Xml_lexer.scan_name lx in
        let tag = List.hd !open_tags in
        if close <> tag then
          Xml_lexer.error lx
            (Printf.sprintf "mismatched close tag: expected </%s>, found </%s>" tag close);
        Xml_lexer.skip_whitespace lx;
        Xml_lexer.expect lx '>';
        open_tags := List.tl !open_tags;
        handler (End_element tag)
      end
      else if Xml_lexer.looking_at lx "<!--" then begin
        flush_text ();
        Xml_lexer.expect_string lx "<!--";
        handler (Comment (Xml_lexer.scan_until lx "-->"))
      end
      else if Xml_lexer.looking_at lx "<![CDATA[" then begin
        Xml_lexer.expect_string lx "<![CDATA[";
        Buffer.add_string text (Xml_lexer.scan_until lx "]]>")
      end
      else if Xml_lexer.looking_at lx "<?" then begin
        flush_text ();
        handler (scan_pi lx)
      end
      else begin
        flush_text ();
        start_element ()
      end
    end
    else if c = '&' then Buffer.add_string text (Xml_lexer.scan_reference lx)
    else begin
      Buffer.add_char text c;
      Xml_lexer.advance lx
    end
  done;
  skip_misc lx handler;
  if not (Xml_lexer.at_end lx) then Xml_lexer.error lx "content after the root element"

let parse_string input handler =
  Tl_obs.Span.with_ "xml.parse" @@ fun () ->
  parse_lexer (Xml_lexer.of_string input) handler;
  Tl_obs.Metrics.incr "xml.documents_parsed";
  Tl_obs.Metrics.observe "xml.input_bytes" (String.length input)

let parse_file path handler =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content =
    try really_input_string ic len
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  parse_string content handler

let events_of_string input =
  let events = ref [] in
  parse_string input (fun e -> events := e :: !events);
  List.rev !events
