(* Tests for the SAX parser, the streaming tree loader, and the preorder
   tree constructor they share. *)

module Xml_sax = Tl_xml.Xml_sax
module Xml_dom = Tl_xml.Xml_dom
module Xml_error = Tl_xml.Xml_error
module Data_tree = Tl_tree.Data_tree
module Tree_load = Tl_tree.Tree_load

let events = Xml_sax.events_of_string

let expect_parse_error input =
  match events input with
  | exception Xml_error.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" input

(* --- event stream ----------------------------------------------------------- *)

let test_basic_events () =
  match events {|<?xml version="1.0"?><a x="1"><b>hi</b><c/></a>|} with
  | [
   Declaration [ ("version", "1.0") ];
   Start_element ("a", [ ("x", "1") ]);
   Start_element ("b", []);
   Text "hi";
   End_element "b";
   Start_element ("c", []);
   End_element "c";
   End_element "a";
  ] ->
    ()
  | other -> Alcotest.failf "unexpected event stream (%d events)" (List.length other)

let test_text_coalescing () =
  (* Entity references and CDATA merge into one Text event per run. *)
  match events "<a>x&amp;y<![CDATA[&z]]>!</a>" with
  | [ Start_element _; Text t; End_element _ ] -> Alcotest.(check string) "coalesced" "x&y&z!" t
  | _ -> Alcotest.fail "expected a single text event"

let test_comment_and_pi_events () =
  match events "<a><!--note--><?p data?></a>" with
  | [ Start_element _; Comment c; Pi (target, content); End_element _ ] ->
    Alcotest.(check string) "comment" "note" c;
    Alcotest.(check string) "pi target" "p" target;
    Alcotest.(check string) "pi content" "data" content
  | _ -> Alcotest.fail "expected comment then pi"

let test_doctype_skipped () =
  match events {|<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>|} with
  | [ Start_element ("a", []); End_element "a" ] -> ()
  | _ -> Alcotest.fail "doctype should produce no events"

let test_sax_errors () =
  expect_parse_error "<a><b></a></b>";
  expect_parse_error "<a>";
  expect_parse_error "<a/><b/>";
  expect_parse_error "stray <a/>";
  expect_parse_error "<a/>trailing";
  expect_parse_error "";
  expect_parse_error "</a>"

let test_sax_matches_dom () =
  (* Same grammar: replaying SAX events must rebuild the DOM parse. *)
  let input = {|<?xml version="1.0"?><r a="1"><x>t&lt;</x><!--c--><y><z/></y>tail</r>|} in
  let dom = Xml_dom.parse_string input in
  let stack = ref [ Xml_dom.element "STAGING" [] ] in
  let add node =
    match !stack with
    | top :: rest -> stack := { top with children = node :: top.children } :: rest
    | [] -> assert false
  in
  Xml_sax.parse_string input (fun event ->
      match event with
      | Declaration _ -> ()
      | Start_element (tag, attrs) -> stack := Xml_dom.element ~attrs tag [] :: !stack
      | End_element _ -> (
        match !stack with
        | el :: rest ->
          stack := rest;
          add (Xml_dom.Element { el with children = List.rev el.children })
        | [] -> assert false)
      | Text t -> add (Xml_dom.Text t)
      | Comment c -> add (Xml_dom.Comment c)
      | Pi (t, c) -> add (Xml_dom.Pi (t, c)));
  match !stack with
  | [ { children = [ Xml_dom.Element rebuilt ]; _ } ] ->
    Alcotest.(check bool) "same document" true (Xml_dom.equal_element dom.root rebuilt)
  | _ -> Alcotest.fail "reconstruction failed"

(* --- of_preorder -------------------------------------------------------------- *)

let test_of_preorder_basic () =
  let t = Data_tree.of_preorder ~tags:[| "a"; "b"; "c"; "b" |] ~parents:[| -1; 0; 1; 0 |] in
  Alcotest.(check int) "size" 4 (Data_tree.size t);
  Alcotest.(check string) "root tag" "a" (Data_tree.label_name t (Data_tree.label t 0));
  Alcotest.(check (list int)) "root children" [ 1; 3 ] (Array.to_list (Data_tree.children t 0));
  Alcotest.(check (option int)) "parent" (Some 1) (Data_tree.parent t 2);
  let b = Option.get (Data_tree.label_of_string t "b") in
  Alcotest.(check (list int)) "by label" [ 1; 3 ] (Array.to_list (Data_tree.nodes_with_label t b))

let test_of_preorder_validation () =
  let expect_invalid tags parents =
    match Data_tree.of_preorder ~tags ~parents with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected validation failure"
  in
  expect_invalid [||] [||];
  expect_invalid [| "a" |] [| -1; 0 |];
  expect_invalid [| "a"; "b" |] [| 0; 0 |];
  expect_invalid [| "a"; "b" |] [| -1; 1 |];
  expect_invalid [| "a"; "b" |] [| -1; -1 |]

(* --- streaming loader ----------------------------------------------------------- *)

let same_tree a b =
  Data_tree.size a = Data_tree.size b
  && begin
       let ok = ref true in
       Data_tree.iter_nodes a (fun v ->
           if Data_tree.label_name a (Data_tree.label a v) <> Data_tree.label_name b (Data_tree.label b v)
           then ok := false;
           if Data_tree.parent a v <> Data_tree.parent b v then ok := false);
       !ok
     end

let test_load_matches_dom_route () =
  let input = {|<r><x a="ignored">text<y/><y><z/></y></x><x/></r>|} in
  let via_dom = Data_tree.of_xml (Xml_dom.parse_string input) in
  let via_sax = Tree_load.of_string input in
  Alcotest.(check bool) "identical trees" true (same_tree via_dom via_sax)

let test_load_file () =
  let path = Filename.temp_file "tl_sax" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "<a><b/><b><c/></b></a>";
      close_out oc;
      let t = Tree_load.of_file path in
      Alcotest.(check int) "loaded size" 4 (Data_tree.size t))

let test_load_grows_buffers () =
  (* More nodes than the initial buffer capacity. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 500 do
    Buffer.add_string buf "<k/>"
  done;
  Buffer.add_string buf "</r>";
  let t = Tree_load.of_string (Buffer.contents buf) in
  Alcotest.(check int) "all nodes loaded" 501 (Data_tree.size t)

let prop_sax_route_equals_dom_route =
  Helpers.qcheck_case ~name:"SAX and DOM loading build identical trees" ~count:100
    (Helpers.spec_gen ~max_nodes:40)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let text = Tl_xml.Xml_writer.to_string { decl = None; root = el } in
      same_tree (Data_tree.of_xml (Xml_dom.parse_string text)) (Tree_load.of_string text))

let prop_same_estimates_either_route =
  Helpers.qcheck_case ~name:"summaries agree between loading routes" ~count:25
    (Helpers.spec_gen ~max_nodes:25)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let text = Tl_xml.Xml_writer.to_string { decl = None; root = el } in
      let s1 = Tl_lattice.Summary.build ~k:3 (Data_tree.of_xml (Xml_dom.parse_string text)) in
      let s2 = Tl_lattice.Summary.build ~k:3 (Tree_load.of_string text) in
      Tl_lattice.Summary.entries s1 = Tl_lattice.Summary.entries s2
      && Tl_lattice.Summary.fold
           (fun tw c acc -> acc && Tl_lattice.Summary.find s2 tw = Some c)
           s1 true)

(* --- loader parity: streaming vs DOM route ------------------------------------ *)

(* Random documents that touch every construct both parsers scan: a
   prolog (declaration, DOCTYPE, comments, PIs), attributes, text with
   references, CDATA, comments and PIs in content, self-closing and
   explicitly closed elements, and trailing misc. *)
let document_gen =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "x:y"; "d-1" ] in
  let text = oneofl [ "t"; " "; "\n"; "&amp;"; "&#65;"; "&#x42;"; "&lt;b&gt;" ] in
  let misc = oneofl [ ""; " "; "\n"; "<!--m-->"; "<?pi body?>" ] in
  let attrs =
    let* n = int_bound 2 in
    let* values = list_repeat n (oneofl [ {|"v"|}; "'w'"; {|"&quot;"|} ]) in
    return (String.concat "" (List.mapi (fun i v -> Printf.sprintf " k%d=%s" i v) values))
  in
  let rec element depth =
    let* tag = name in
    let* attrs = attrs in
    let* closed = if depth = 0 then return true else bool in
    if not closed then return (Printf.sprintf "<%s%s/>" tag attrs)
    else
      let* n = int_bound (if depth = 0 then 0 else 4) in
      let* parts = list_repeat n (content (depth - 1)) in
      let* ws = oneofl [ ""; " " ] in
      return (Printf.sprintf "<%s%s>%s</%s%s>" tag attrs (String.concat "" parts) tag ws)
  and content depth =
    oneof
      [
        element depth;
        text;
        return "<!--c-->";
        return "<![CDATA[<raw>&]]>";
        return "<?p data?>";
      ]
  in
  let* decl = oneofl [ ""; {|<?xml version="1.0"?>|}; "  " ] in
  let* pre = list_size (int_bound 2) misc in
  let* doctype = oneofl [ ""; "<!DOCTYPE a>"; "<!DOCTYPE a [<!ELEMENT a ANY>]>" ] in
  let* root = element 3 in
  let* post = list_size (int_bound 2) misc in
  return (decl ^ String.concat "" pre ^ doctype ^ root ^ String.concat "" post)

(* Byte-level mutations: delete, replace or insert one byte (drawn from the
   characters that steer the grammar), or duplicate a short slice. *)
let mutate_gen doc =
  let open QCheck2.Gen in
  let interesting = oneofl [ '<'; '>'; '/'; '&'; ';'; '!'; '?'; '-'; '['; ']'; '"'; '='; ' '; 'a'; '\n'; '#' ] in
  let mutate s =
    let n = String.length s in
    if n = 0 then return s
    else
      let* i = int_bound (n - 1) in
      let* c = interesting in
      let* kind = int_bound 3 in
      let* len = int_range 1 8 in
      return
        (match kind with
        | 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
        | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
        | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
        | _ ->
          let len = min len (n - i) in
          String.sub s 0 (i + len) ^ String.sub s i (n - i))
  in
  let* rounds = int_bound 3 in
  let rec go s k = if k = 0 then return s else mutate s >>= fun s -> go s (k - 1) in
  go doc rounds

let parity_gen = QCheck2.Gen.(document_gen >>= mutate_gen)

type load_outcome = Tree of Data_tree.t | Error of Xml_error.position * string | Raised of string

let outcome load input =
  match load input with
  | tree -> Tree tree
  | exception Xml_error.Parse_error (pos, msg) -> Error (pos, msg)
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Tree t -> Printf.sprintf "tree of %d nodes" (Data_tree.size t)
  | Error (pos, msg) -> Printf.sprintf "error at %s (offset %d): %s" (Xml_error.pp_position pos) pos.offset msg
  | Raised e -> "raised " ^ e

let prop_loaders_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~print:(fun s -> s)
       ~name:"streaming and DOM loaders: same tree or same positioned error" parity_gen (fun input ->
         let sax = outcome Tree_load.of_string input in
         let dom = outcome (fun s -> Data_tree.of_xml (Xml_dom.parse_string s)) input in
         match (sax, dom) with
         | Tree a, Tree b when same_tree a b -> true
         | Error (p, m), Error (p', m') when p = p' && m = m' -> true
         | _ -> QCheck2.Test.fail_reportf "streaming: %s\nDOM:       %s" (show_outcome sax) (show_outcome dom)))

let test_mismatched_close_position () =
  let input = "<a><b></a>" in
  let dom = outcome (fun s -> Data_tree.of_xml (Xml_dom.parse_string s)) input in
  let sax = outcome Tree_load.of_string input in
  Alcotest.(check string) "DOM position" "error at line 1, column 10 (offset 9): mismatched close tag: expected </b>, found </a>" (show_outcome dom);
  Alcotest.(check string) "streaming = DOM" (show_outcome dom) (show_outcome sax)

let () =
  Alcotest.run "sax"
    [
      ( "events",
        [
          Alcotest.test_case "basic stream" `Quick test_basic_events;
          Alcotest.test_case "text coalescing" `Quick test_text_coalescing;
          Alcotest.test_case "comment and pi" `Quick test_comment_and_pi_events;
          Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
          Alcotest.test_case "errors" `Quick test_sax_errors;
          Alcotest.test_case "matches dom" `Quick test_sax_matches_dom;
        ] );
      ( "of_preorder",
        [
          Alcotest.test_case "basic" `Quick test_of_preorder_basic;
          Alcotest.test_case "validation" `Quick test_of_preorder_validation;
        ] );
      ( "tree_load",
        [
          Alcotest.test_case "matches dom route" `Quick test_load_matches_dom_route;
          Alcotest.test_case "file" `Quick test_load_file;
          Alcotest.test_case "buffer growth" `Quick test_load_grows_buffers;
          prop_sax_route_equals_dom_route;
          prop_same_estimates_either_route;
        ] );
      ( "parity",
        [
          Alcotest.test_case "mismatched close tag position" `Quick test_mismatched_close_position;
          prop_loaders_agree;
        ] );
    ]
