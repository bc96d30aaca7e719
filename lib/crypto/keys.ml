let signature_size = 64
let mac_tag_size = 8
