type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string

and element = { tag : string; attrs : (string * string) list; children : node list }

type t = { decl : (string * string) list option; root : element }

let element ?(attrs = []) tag children = { tag; attrs; children }

(* --- parsing ----------------------------------------------------------- *)

let rec scan_element lx =
  Xml_lexer.expect lx '<';
  let tag = Xml_lexer.scan_name lx in
  let attrs = Xml_lexer.scan_attributes lx in
  Xml_lexer.skip_whitespace lx;
  if Xml_lexer.looking_at lx "/>" then begin
    Xml_lexer.expect_string lx "/>";
    { tag; attrs; children = [] }
  end
  else begin
    Xml_lexer.expect lx '>';
    let children = scan_content lx in
    Xml_lexer.expect_string lx "</";
    let close = Xml_lexer.scan_name lx in
    if close <> tag then
      Xml_lexer.error lx (Printf.sprintf "mismatched close tag: expected </%s>, found </%s>" tag close);
    Xml_lexer.skip_whitespace lx;
    Xml_lexer.expect lx '>';
    { tag; attrs; children }
  end

and scan_content lx =
  let items = ref [] in
  let text = Buffer.create 32 in
  let flush_text () =
    if Buffer.length text > 0 then begin
      items := Text (Buffer.contents text) :: !items;
      Buffer.clear text
    end
  in
  let rec loop () =
    if Xml_lexer.at_end lx then Xml_lexer.error lx "unexpected end of input inside an element";
    let c = Xml_lexer.peek lx in
    if c = '<' then begin
      if Xml_lexer.looking_at lx "</" then flush_text ()
      else if Xml_lexer.looking_at lx "<!--" then begin
        flush_text ();
        Xml_lexer.expect_string lx "<!--";
        let body = Xml_lexer.scan_until lx "-->" in
        items := Comment body :: !items;
        loop ()
      end
      else if Xml_lexer.looking_at lx "<![CDATA[" then begin
        Xml_lexer.expect_string lx "<![CDATA[";
        let body = Xml_lexer.scan_until lx "]]>" in
        Buffer.add_string text body;
        loop ()
      end
      else if Xml_lexer.looking_at lx "<?" then begin
        flush_text ();
        Xml_lexer.expect_string lx "<?";
        let target = Xml_lexer.scan_name lx in
        Xml_lexer.skip_whitespace lx;
        let body = Xml_lexer.scan_until lx "?>" in
        items := Pi (target, body) :: !items;
        loop ()
      end
      else begin
        flush_text ();
        let child = scan_element lx in
        items := Element child :: !items;
        loop ()
      end
    end
    else if c = '&' then begin
      Buffer.add_string text (Xml_lexer.scan_reference lx);
      loop ()
    end
    else begin
      Buffer.add_char text c;
      Xml_lexer.advance lx;
      loop ()
    end
  in
  loop ();
  List.rev !items

let scan_declaration lx =
  if Xml_lexer.looking_at lx "<?xml" then begin
    Xml_lexer.expect_string lx "<?xml";
    let attrs = Xml_lexer.scan_attributes lx in
    Xml_lexer.skip_whitespace lx;
    Xml_lexer.expect_string lx "?>";
    Some attrs
  end
  else None

let skip_misc lx =
  let rec loop () =
    Xml_lexer.skip_whitespace lx;
    if Xml_lexer.looking_at lx "<!--" then begin
      Xml_lexer.expect_string lx "<!--";
      ignore (Xml_lexer.scan_until lx "-->");
      loop ()
    end
    else if Xml_lexer.looking_at lx "<!DOCTYPE" then begin
      Xml_lexer.skip_doctype lx;
      loop ()
    end
    else if Xml_lexer.looking_at lx "<?" then begin
      Xml_lexer.expect_string lx "<?";
      ignore (Xml_lexer.scan_name lx);
      ignore (Xml_lexer.scan_until lx "?>");
      loop ()
    end
  in
  loop ()

let parse_string input =
  Tl_obs.Span.with_ "xml.parse" @@ fun () ->
  let lx = Xml_lexer.of_string input in
  Xml_lexer.skip_whitespace lx;
  let decl = scan_declaration lx in
  skip_misc lx;
  if Xml_lexer.at_end lx || Xml_lexer.peek lx <> '<' then
    Xml_lexer.error lx "expected a root element";
  let root = scan_element lx in
  skip_misc lx;
  if not (Xml_lexer.at_end lx) then Xml_lexer.error lx "content after the root element";
  Tl_obs.Metrics.incr "xml.documents_parsed";
  Tl_obs.Metrics.observe "xml.input_bytes" (String.length input);
  { decl; root }

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content =
    try really_input_string ic len
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  parse_string content

(* --- queries ----------------------------------------------------------- *)

let rec equal_element a b =
  String.equal a.tag b.tag
  && List.equal (fun (k, v) (k', v') -> String.equal k k' && String.equal v v') a.attrs b.attrs
  && List.equal equal_node a.children b.children

and equal_node a b =
  match (a, b) with
  | Element a, Element b -> equal_element a b
  | Text a, Text b | Comment a, Comment b -> String.equal a b
  | Pi (t, c), Pi (t', c') -> String.equal t t' && String.equal c c'
  | (Element _ | Text _ | Comment _ | Pi _), _ -> false

let fold_elements f acc doc =
  let rec go acc el =
    let acc = f acc el in
    List.fold_left
      (fun acc child -> match child with Element e -> go acc e | Text _ | Comment _ | Pi _ -> acc)
      acc el.children
  in
  go acc doc.root

let count_elements doc = fold_elements (fun acc _ -> acc + 1) 0 doc

let tags doc =
  let seen = Hashtbl.create 32 in
  let order =
    fold_elements
      (fun acc el ->
        if Hashtbl.mem seen el.tag then acc
        else begin
          Hashtbl.replace seen el.tag ();
          el.tag :: acc
        end)
      [] doc
  in
  List.rev order

let depth doc =
  let rec go el =
    let deepest =
      List.fold_left
        (fun acc child -> match child with Element e -> max acc (go e) | Text _ | Comment _ | Pi _ -> acc)
        0 el.children
    in
    1 + deepest
  in
  go doc.root
